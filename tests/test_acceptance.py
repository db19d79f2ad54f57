"""Acceptance suite: the eleven release criteria.

Each test prints a single PASS line with its headline statistic when it
succeeds; tolerances are part of the criteria and must not be loosened.
The desk-scale directional experiments share cached training runs via a
session fixture so the suite stays fast.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dualmargin import encoder
from dualmargin.cli import main as cli_main
from dualmargin.config import assemble
from dualmargin.core import rows_normalize
from dualmargin.evaluation import calibrate_threshold, open_set_scores
from dualmargin.experiment import run_experiment, with_seed
from dualmargin.loss import (
    MarginConfig,
    margin_loss,
    margin_loss_forward,
)
from dualmargin.priors import effective_numbers, margin_adjustments
from dualmargin.sampler import lowest_norm_indices, plan_batch
from dualmargin.synthdata import VAL
from dualmargin.verify import alignment_probe, bound_probe, central_difference


# --- Shared desk-scale experiment configurations -------------------------

# Long-tailed closed-set benchmark: c=20, dim=16, head 1000, ratio 100.
# The larger test split keeps per-class tail recall estimates stable enough
# for the cross-seed spread criterion; the oversampling rate balances the
# tail gain against run-to-run variance.
BENCH_KEYS = {
    "data.classes": 20,
    "data.dim": 16,
    "data.head_count": 1000,
    "data.imbalance_ratio": 100.0,
    "data.cluster_spread": 0.5,
    "data.train_frac": 0.6,
    "data.test_frac": 0.3,
    "margin.eq5_sign": "magnitude",
    "partition.head_threshold": 500,
    "partition.tail_threshold": 50,
    "train.oversample_prob": 0.45,
}

# Open-set benchmark: 4 of 20 classes (20%) unknown, spread giving score
# overlap between known and unknown pools.
OPEN_SET_KEYS = {
    "data.classes": 20,
    "data.dim": 32,
    "train.embed_dim": 32,
    "data.head_count": 1000,
    "data.imbalance_ratio": 100.0,
    "data.cluster_spread": 0.3,
    "data.unknown_classes": 4,
    "margin.eq5_sign": "magnitude",
    "partition.head_threshold": 500,
    "partition.tail_threshold": 50,
}

MODE_OVERRIDES = {
    "dual_norm": {},
    "dual_random": {"train.selection": "random"},
    "ce": {"margin.mode": "ce"},
}


@pytest.fixture(scope="session")
def experiment_cache():
    """Lazily run and cache (benchmark, mode, seed) experiments."""
    cache = {}
    runtimes = {}

    def get(bench, mode, seed):
        key = (bench, mode, seed)
        if key not in cache:
            base = BENCH_KEYS if bench == "closed" else OPEN_SET_KEYS
            cfg = assemble({**base, **MODE_OVERRIDES[mode]})
            start = time.perf_counter()
            state, _, report, row = run_experiment(with_seed(cfg, seed))
            runtimes[key] = time.perf_counter() - start
            cache[key] = (state, report, row)
        return cache[key]

    get.runtimes = runtimes
    return get


# --- 1. Gradient oracle ---------------------------------------------------


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(20250823)
    start = time.perf_counter()
    max_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        cfg = MarginConfig(
            s=float(rng.choice([1.0, 32.0])),
            m=float(rng.uniform(0.05, 0.3)),
            lam=float(rng.choice([0.0, 1.0, 5.0])),
            gamma=float(rng.normal(0, 0.5)),
            mode=str(rng.choice(["dual_margin", "am_softmax", "ce"])),
            eq5_sign=str(rng.choice(["literal", "magnitude"])),
        )
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(c, d))
        labels = rng.integers(0, c, size=n)
        deltas = rng.uniform(0, cfg.m, size=c)
        out = margin_loss(x, labels, w, deltas, cfg)
        theta = np.concatenate([x.ravel(), w.ravel(), [cfg.gamma]])

        def f(t):
            xx = t[: n * d].reshape(n, d)
            ww = t[n * d : n * d + c * d].reshape(c, d)
            o, _ = margin_loss_forward(
                xx, labels, ww, deltas, replace(cfg, gamma=float(t[-1]))
            )
            return o.total

        numeric = central_difference(f, theta, 1e-6)
        analytic = np.concatenate(
            [out.grad_embeddings.ravel(), out.grad_prototypes.ravel(), [out.grad_gamma]]
        )
        err = float(
            np.max(np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic)))
        )
        max_err = max(max_err, err)
    elapsed = time.perf_counter() - start
    assert max_err < 1e-5, f"gradient oracle failed: max rel error {max_err}"
    assert elapsed < 10.0, f"gradient oracle too slow: {elapsed:.1f}s"
    print(f"criterion 1 PASS: max rel error {max_err:.2e} in {elapsed:.1f}s")


# --- 2. Reduction equivalence --------------------------------------------


def test_criterion_2_reduction_equivalence():
    rng = np.random.default_rng(2)
    worst_am = 0.0
    worst_ce = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(c, d))
        labels = rng.integers(0, c, size=n)
        s = float(rng.choice([1.0, 32.0]))
        m = float(rng.uniform(0.05, 0.3))

        am_out, _ = margin_loss_forward(
            x, labels, w, None, MarginConfig(mode="am_softmax", s=s, m=m)
        )
        dm_out, _ = margin_loss_forward(
            x, labels, w, np.zeros(c), MarginConfig(mode="dual_margin", s=s, m=m)
        )
        worst_am = max(worst_am, float(np.max(np.abs(am_out.per_sample - dm_out.per_sample))))

        ce_out, _ = margin_loss_forward(x, labels, w, None, MarginConfig(mode="ce"))
        logits = x @ w.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        oracle = -logp[np.arange(n), labels]
        worst_ce = max(worst_ce, float(np.max(np.abs(ce_out.per_sample - oracle))))

    assert worst_am <= 1e-12, f"am_softmax reduction mismatch {worst_am}"
    assert worst_ce <= 1e-12, f"ce reduction mismatch {worst_ce}"
    print(f"criterion 2 PASS: max deviations am={worst_am:.2e} ce={worst_ce:.2e}")


# --- 3. Alignment inequality and annealed limit ---------------------------


def test_criterion_3_alignment():
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(3, 8))
        cfg = MarginConfig(s=float(rng.choice([1.0, 32.0])))
        units, _, _ = rows_normalize(rng.normal(size=(n, d)))
        protos, _, _ = rows_normalize(rng.normal(size=(c, d)))
        deltas = rng.uniform(0, cfg.m, size=c)
        probe = alignment_probe(units, int(rng.integers(0, c)), protos, deltas, cfg)
        if probe.residual > probe.bound + 1e-9:
            violations += 1
    assert violations == 0, f"alignment bound violated {violations} times"

    # Annealed sequence: residual decreases toward zero with the spread.
    base, _, _ = rows_normalize(rng.normal(size=(1, 6)))
    protos, _, _ = rows_normalize(rng.normal(size=(4, 6)))
    deltas = np.linspace(0, 0.15, 4)
    noise = rng.normal(size=(10, 6))
    residuals = []
    for scale in (1e-1, 1e-2, 1e-3, 1e-4):
        units, _, _ = rows_normalize(base + scale * noise)
        probe = alignment_probe(units, 1, protos, deltas, MarginConfig(s=1.0))
        residuals.append(probe.residual)
    assert all(b < a for a, b in zip(residuals, residuals[1:])), residuals
    print(
        "criterion 3 PASS: 0/10000 violations; annealed residuals "
        + " -> ".join(f"{r:.2e}" for r in residuals)
    )


# --- 4. Exponential deviation bound ---------------------------------------


def test_criterion_4_deviation_bound():
    rng = np.random.default_rng(4)
    for s in (1.0, 32.0):
        cfg = MarginConfig(s=s)
        checked = 0
        violations = 0
        attempts = 0
        while checked < 10_000:
            attempts += 1
            assert attempts < 100_000, "could not generate enough probes"
            c = int(rng.integers(3, 7))
            d = int(rng.integers(3, 8))
            protos, _, _ = rows_normalize(rng.normal(size=(c, d)))
            deltas = np.sort(rng.uniform(0, cfg.m, size=c))
            y = 0
            tail = c - 1
            unit, _, _ = rows_normalize(
                (protos[y] + 0.3 * rng.normal(size=d))[None, :]
            )
            probe = bound_probe(unit[0], y, tail, protos, deltas, cfg)
            if probe.condition_met:
                checked += 1
                if probe.grad_norm > probe.bound + 1e-9:
                    violations += 1
        assert violations == 0, f"bound violated {violations} times at s={s}"
    print("criterion 4 PASS: 0 violations over 10000 probes each at s=1 and s=32")


# --- 5. Effective-number values -------------------------------------------


def test_criterion_5_effective_numbers():
    values = effective_numbers(np.array([1, 2, 500]), 0.9)
    assert values[0] == pytest.approx(1.0, abs=1e-6)
    assert values[1] == pytest.approx(1.9, abs=1e-6)
    assert values[2] == pytest.approx(10.0, abs=1e-6)
    print(f"criterion 5 PASS: E(1)={values[0]}, E(2)={values[1]}, E(500)={values[2]}")


# --- 6. Margin ledger ------------------------------------------------------


def test_criterion_6_margin_ledger():
    rng = np.random.default_rng(6)
    m = 0.15
    for _ in range(1000):
        priors = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
        deltas = margin_adjustments(priors, m)
        assert np.all(deltas >= -1e-15)
        assert np.all(deltas <= m + 1e-15)
        order = np.argsort(priors)  # ascending priors
        assert np.all(np.diff(deltas[order]) <= 1e-12)  # deltas non-increasing
        assert deltas[order[0]] == pytest.approx(m)
        assert deltas[order[-1]] == pytest.approx(0.0, abs=1e-15)
    print("criterion 6 PASS: 1000 random prior vectors satisfy the margin ledger")


# --- 7. Norm-guided selection and Bernoulli gate ---------------------------


def test_criterion_7_selection_and_gate():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        keep = int(rng.integers(1, n + 1))
        norms = rng.choice([0.5, 1.0, 1.5, rng.uniform(0, 2)], size=n)
        rows = lowest_norm_indices(norms, keep)
        oracle = sorted(range(n), key=lambda i: (norms[i], i))[:keep]
        assert list(rows) == sorted(oracle), (norms, keep)

    labels = np.array([0] * 50 + [1] * 10)
    from dualmargin.priors import partition_classes

    partition = partition_classes([50, 10], head_threshold=40, tail_threshold=20)
    gate_rng = np.random.default_rng(42)
    indices = np.arange(60)
    fired = sum(
        plan_batch(indices, labels, partition, 4, 2, 0.1, gate_rng).oversample_fired
        for _ in range(10_000)
    )
    freq = fired / 10_000
    assert 0.09 <= freq <= 0.11, f"firing frequency {freq}"
    print(f"criterion 7 PASS: selection matches oracle; firing frequency {freq:.4f}")


# --- 8. Open-set calibration and directional TNR ---------------------------


def test_criterion_8_open_set(experiment_cache):
    # Calibration tightness on one run's validation scores.
    cfg = assemble(OPEN_SET_KEYS)
    state, _, _ = experiment_cache("open", "dual_norm", 0)
    from dualmargin.experiment import build_dataset

    dataset = build_dataset(with_seed(cfg, 0))
    units_w, _, _ = rows_normalize(state.best_prototypes)
    emb, _ = encoder.forward(state.best_encoder_params, dataset.features[dataset.indices(VAL)])
    units, _, _ = rows_normalize(emb)
    val_scores = open_set_scores(units, units_w, kind="cosine")
    tau, achieved = calibrate_threshold(val_scores, 0.95)
    assert achieved >= 0.95
    assert achieved - 0.95 < 1.0 / val_scores.size, "overshoot above one order statistic"

    seeds = (0, 1, 42)
    dm_tnr = [experiment_cache("open", "dual_norm", s)[1].open_set["tnr"] for s in seeds]
    ce_tnr = [experiment_cache("open", "ce", s)[1].open_set["tnr"] for s in seeds]
    assert np.mean(dm_tnr) > np.mean(ce_tnr), (dm_tnr, ce_tnr)
    print(
        f"criterion 8 PASS: tau={tau:.4f} TPR={achieved:.4f}; "
        f"mean TNR dual={np.mean(dm_tnr):.4f} > ce={np.mean(ce_tnr):.4f}"
    )


# --- 9. Directional desk-scale experiment ----------------------------------


def test_criterion_9_directional(experiment_cache):
    seeds = (0, 1, 42)
    macro = {
        mode: [experiment_cache("closed", mode, s)[1].macro_recall for s in seeds]
        for mode in ("dual_norm", "dual_random", "ce")
    }
    mean = {mode: float(np.mean(vals)) for mode, vals in macro.items()}
    assert mean["dual_norm"] >= mean["dual_random"] >= mean["ce"], mean
    assert mean["dual_norm"] - mean["ce"] >= 0.03, mean

    # Tail-group recall gain must exceed the head-group recall change.
    tail_gain = np.mean(
        [
            experiment_cache("closed", "dual_norm", s)[1].group_recall["tail"]
            - experiment_cache("closed", "ce", s)[1].group_recall["tail"]
            for s in seeds
        ]
    )
    head_change = np.mean(
        [
            experiment_cache("closed", "dual_norm", s)[1].group_recall["head"]
            - experiment_cache("closed", "ce", s)[1].group_recall["head"]
            for s in seeds
        ]
    )
    assert tail_gain > head_change, (tail_gain, head_change)

    slow = {k: v for k, v in experiment_cache.runtimes.items() if v >= 60.0}
    assert not slow, f"runs exceeded 60s: {slow}"
    print(
        f"criterion 9 PASS: macro recall dual+norm={mean['dual_norm']:.4f} >= "
        f"dual+random={mean['dual_random']:.4f} >= ce={mean['ce']:.4f}; "
        f"tail gain {tail_gain:+.4f} vs head change {head_change:+.4f}"
    )


# --- 10. Determinism regression --------------------------------------------


def test_criterion_10_determinism(tmp_path):
    config_text = (
        "data.classes = 5\n"
        "data.dim = 6\n"
        "data.head_count = 200\n"
        "data.imbalance_ratio = 10\n"
        "data.cluster_spread = 0.25\n"
        "data.unknown_classes = 1\n"
        "train.epochs = 3\n"
        "train.batch_size = 16\n"
        "train.oversample_size = 4\n"
        "train.hidden_dims = 16\n"
        "train.embed_dim = 8\n"
        "partition.head_threshold = 50\n"
        "partition.tail_threshold = 15\n"
    )
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(config_text)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        outs.append(out)
    from pathlib import Path

    csv_a = Path(outs[0], "metrics.csv").read_bytes()
    csv_b = Path(outs[1], "metrics.csv").read_bytes()
    manifest_a = Path(outs[0], "manifest.json").read_bytes()
    manifest_b = Path(outs[1], "manifest.json").read_bytes()
    assert manifest_a == manifest_b
    assert csv_a == csv_b, "metrics CSV not byte-identical across identical re-runs"
    print(f"criterion 10 PASS: byte-identical metrics ({len(csv_a)} bytes)")


# --- 11. Seed stability -----------------------------------------------------


def test_criterion_11_seed_stability(experiment_cache):
    seeds = (0, 1, 42, 2025)
    recalls = [
        experiment_cache("closed", "dual_norm", s)[1].macro_recall for s in seeds
    ]
    spread = max(recalls) - min(recalls)
    assert spread < 0.05, f"macro recall spread {spread} across seeds {recalls}"
    print(
        f"criterion 11 PASS: macro recall spread {spread:.4f} over seeds {seeds} "
        f"({', '.join(f'{r:.4f}' for r in recalls)})"
    )

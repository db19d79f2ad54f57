"""Command-line harness: generate / train / verify / ablate.

Every run writes a manifest sufficient to reproduce it exactly; metrics
go to CSV/JSON with a fixed column layout. Exit codes: 0 success,
2 config error (``ConfigError``), 3 numerical failure (``NumericalError``),
4 verification failure. Any other exception propagates: it is a bug.

BLAS runs on one thread unless the environment sets a count: some BLAS
kernels give other bits for the same product on two threads, so one
thread keeps runs byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

# Set before NumPy is imported: BLAS reads its thread count when it loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, assemble, describe_defaults, parse_config
from .experiment import build_dataset, run_experiment, run_id_for, with_seed
from .loss import MODES, MarginConfig, margin_loss, margin_loss_forward
from .synthdata import export_csv
from .trainer import TrainingDiverged, save_checkpoint
from .verify import alignment_probe, bound_probe, central_difference
from .core import NumericalError, rows_normalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

# grid -> variant name -> config-key overrides, applied over the loaded config.
ABLATION_GRIDS = {
    # Letters: A base margin only, B dual margin, C no oversampling,
    # D oversampling with random selection, E oversampling with
    # norm-guided selection, F regularization.
    "configs": {
        "A,C": {"margin.mode": "am_softmax", "train.oversample_prob": 0.0, "margin.lambda": 0.0},
        "B,C": {"margin.mode": "dual_margin", "train.oversample_prob": 0.0, "margin.lambda": 0.0},
        "B,D": {"margin.mode": "dual_margin", "train.selection": "random", "margin.lambda": 0.0},
        "B,E": {"margin.mode": "dual_margin", "train.selection": "norm_guided",
                "margin.lambda": 0.0},
        "B,E,F": {"margin.mode": "dual_margin", "train.selection": "norm_guided"},
    },
    "seeds": {f"seed={seed}": {"data.seed": seed, "train.seed": seed}
              for seed in (0, 1, 42, 2025)},
    "margin": {f"m={m}": {"margin.m": m} for m in (0.05, 0.10, 0.15, 0.20)},
    "lambda": {f"lambda={lam}": {"margin.lambda": lam} for lam in (0.0, 0.0001, 1.0, 5.0)},
}
SCALES = (1.0, 32.0)  # the logit scales s the verification probes draw from
GRADCHECK_INSTANCES = 20  # random loss instances the gradient check draws
PROP_PROBES = 2000  # probes drawn for each of the two inequality claims


def write_metrics_csv(rows: list[dict], path: str) -> None:
    """One line per row under a header of the first row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)


def write_manifest(cfg: ExperimentConfig, out_dir: str) -> None:
    manifest = {
        "version": __version__,
        "run_id": run_id_for(cfg),
        "config": {k: str(v) for k, v in cfg.to_flat_dict().items()},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    dataset = build_dataset(cfg)
    export_csv(dataset, os.path.join(args.out, "dataset.csv"),
               os.path.join(args.out, "dataset.json"))
    write_manifest(cfg, args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)

    def keep_model(state):
        # Saved before evaluation, so a later failure keeps the trained model.
        write_manifest(cfg, args.out)
        save_checkpoint(state, os.path.join(args.out, "checkpoint.json"))

    _, _, report, row = run_experiment(
        cfg,
        history_path=os.path.join(args.out, "history.jsonl"),
        plan_log_path=os.path.join(args.out, "plans.jsonl"),
        on_trained=keep_model,
    )
    write_metrics_csv([row], os.path.join(args.out, "metrics.csv"))
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        json.dump(vars(report), fh, indent=2, default=np.ndarray.tolist)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    rows = [dict(zip(("check", "statistic", "value", "threshold", "passed"), row))
            for row in verification_rows(seed=cfg.train.seed)]
    write_metrics_csv(rows, os.path.join(args.out, "verify.csv"))
    write_manifest(cfg, args.out)
    for row in rows:
        print(f"{row['check']}: {row['statistic']}={row['value']} "
              f"(threshold {row['threshold']}) -> {'PASS' if row['passed'] else 'FAIL'}")
    return EXIT_OK if all(row["passed"] for row in rows) else EXIT_VERIFY


def verification_rows(seed: int = 42) -> list[tuple]:
    """Gradient oracle plus both inequality probes, as report rows."""
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for _ in range(GRADCHECK_INSTANCES):
        n, c, d = rng.integers(2, 9), rng.integers(2, 6), rng.integers(2, 8)
        cfg = MarginConfig(s=float(rng.choice(SCALES)),
                           m=float(rng.uniform(0.05, 0.3)),
                           lam=float(rng.choice([0.0, 1.0, 5.0])),
                           gamma=float(rng.normal(0, 0.5)),
                           mode=str(rng.choice(MODES)))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(c, d))
        labels = rng.integers(0, c, size=n)
        deltas = np.sort(rng.uniform(0, cfg.m, size=c))[::-1].copy()
        deltas[0] = 0.0
        deltas[-1] = cfg.m
        out = margin_loss(x, labels, w, deltas, cfg)
        theta = np.concatenate([x.ravel(), w.ravel(), [cfg.gamma]])

        def f(points):
            # A stacked forward shares one gamma, so the points go in one
            # call per gamma value: the base, +h and -h.
            values = np.empty(len(points))
            for gamma in set(points[:, -1].tolist()):
                rows = points[:, -1] == gamma
                group = points[rows]
                o, _ = margin_loss_forward(group[:, :n * d].reshape(-1, n, d), labels,
                                           group[:, n * d:-1].reshape(-1, c, d), deltas,
                                           replace(cfg, gamma=gamma))
                values[rows] = o.total
            return values

        numeric = central_difference(f, theta, 1e-6, stacked=True)
        analytic = np.concatenate([
            out.grad_embeddings.ravel(), out.grad_prototypes.ravel(), [out.grad_gamma]
        ])
        err = float(np.max(np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic))))
        max_err = max(max_err, err)

    rows = [("gradcheck", "max_rel_error", max_err, 1e-5, max_err < 1e-5)]

    # Each claim draws every probe's shape and the index of its scale in
    # SCALES with one call, each column from [low, high). Each field is then
    # drawn once at the claim's largest shape and zeroed outside each
    # probe's own rows and columns. The probes read all-zero rows as
    # padding, so each claim makes one probe call per scale.
    margin = MarginConfig().m
    configs = [MarginConfig(s=s) for s in SCALES]
    n, c, d, scale_of = rng.integers([2, 2, 3, 0], [9, 6, 8, 2], size=(PROP_PROBES, 4)).T
    units = _unit_rows(rng.normal(size=(PROP_PROBES, 8, 7)), n, d)
    protos = _unit_rows(rng.normal(size=(PROP_PROBES, 5, 7)), c, d)
    deltas = rng.uniform(0, margin, size=(PROP_PROBES, 5)) * _first_of(5, c)
    class_ids = rng.integers(0, c)
    viol1 = 0
    for si, cfg in enumerate(configs):
        sel = scale_of == si
        probe = alignment_probe(units[sel], class_ids[sel], protos[sel], deltas[sel], cfg)
        viol1 += int(np.count_nonzero(probe.residual > probe.bound + 1e-9))
    rows.append(("prototype_alignment", "violations", viol1, 0, viol1 == 0))

    c, d, scale_of = rng.integers([3, 3, 0], [7, 8, 2], size=(PROP_PROBES, 3)).T
    protos = _unit_rows(rng.normal(size=(PROP_PROBES, 6, 7)), c, d)
    # Padded margins sort last, so each probe's tail is its last real class.
    padded = ~_first_of(6, c)
    deltas = rng.uniform(0, margin, size=(PROP_PROBES, 6))
    deltas[padded] = np.inf
    deltas.sort(axis=1)
    deltas[padded] = 0.0
    noise = rng.normal(size=(PROP_PROBES, 7)) * _first_of(7, d)
    # Each sample lies near its class-0 prototype.
    units = rows_normalize(protos[:, 0] + 0.3 * noise)[0]
    viol2 = 0
    checked = 0
    for si, cfg in enumerate(configs):
        sel = scale_of == si
        probe = bound_probe(units[sel], 0, c[sel] - 1, protos[sel], deltas[sel], cfg)
        checked += int(np.count_nonzero(probe.condition_met))
        viol2 += int(np.count_nonzero(probe.condition_met
                                      & (probe.grad_norm > probe.bound + 1e-9)))
    rows.append(("deviation_bound", "violations", viol2, 0,
                 viol2 == 0 and checked > 0))
    return rows


def _first_of(size: int, counts: np.ndarray) -> np.ndarray:
    """(P, size) mask of each row's first ``counts[p]`` entries."""
    return np.arange(size) < counts[:, None]


def _unit_rows(stack: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Unit rows of a (P, r, k) stack cut to each probe's first ``rows[p]``
    rows and ``cols[p]`` columns; every entry outside them is zero."""
    cut = stack * _first_of(stack.shape[2], cols)[:, None, :]
    return rows_normalize(cut)[0] * _first_of(stack.shape[1], rows)[:, :, None]


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for name, overrides in ABLATION_GRIDS[args.grid].items():
        _, _, _, row = run_experiment(assemble({**cfg.to_flat_dict(), **overrides}))
        row = {"variant": name, **row}
        rows.append(row)
        print(f"{name}: macro_recall={row['macro_recall']:.4f} rank1={row['rank1']:.4f}")
    write_metrics_csv(rows, os.path.join(args.out, "ablate.csv"))
    write_manifest(cfg, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmargin",
        description="Dual-margin long-tailed classification harness.",
        epilog=describe_defaults(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("generate", cmd_generate), ("train", cmd_train),
                     ("verify", cmd_verify), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
        p.add_argument("--out", default="runs/out", help="output directory")
        if name == "ablate":
            p.add_argument("grid", choices=tuple(ABLATION_GRIDS))
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error(args, exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except NumericalError as exc:
        _emit_error(args, exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL


def _emit_error(args, exc: Exception, code: int) -> None:
    payload = {"error": str(exc), "exit_code": code}
    if isinstance(exc, TrainingDiverged):
        payload["snapshot"] = exc.snapshot
    print(json.dumps(payload), file=sys.stderr)
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "error.json"), "w") as fh:
            json.dump(payload, fh)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())

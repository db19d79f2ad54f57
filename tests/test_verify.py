"""Unit tests for the finite-difference oracle and the two gradient claims."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dualmargin import cli
from dualmargin.core import NumericalError, rows_normalize
from dualmargin.loss import MarginConfig
from dualmargin.verify import (
    alignment_probe,
    bound_probe,
    central_difference,
)


class TestCentralDifference:
    def test_quadratic_exact(self):
        x = np.array([1.0, -2.0, 0.5])
        grad = central_difference(lambda v: float(v @ v), x, 1e-6)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-8)

    def test_second_order_convergence(self):
        # Error of the central difference on a cubic decays like h^2.
        f = lambda v: float(np.sum(v**3))
        x = np.array([1.1, 0.9])
        exact = 3 * x**2
        errs = []
        for h in (1e-1, 1e-2, 1e-3):
            g = central_difference(f, x, h)
            errs.append(np.max(np.abs(g - exact)))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([1e-1, 1e-2, 1e-3]))
        assert np.all(np.abs(slopes - 2.0) < 0.3)

    def test_non_finite_function(self):
        with pytest.raises(NumericalError, match="non-finite"):
            central_difference(lambda v: float("nan"), np.ones(2), 1e-6)

    def test_stacked_matches_per_point(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 2))
        weights = rng.normal(size=6)

        def f(v):
            return float(np.sin(v.ravel() * weights).sum() + np.prod(v))

        def f_stack(points):
            return np.sin(points * weights).sum(axis=1) + np.prod(points, axis=1)

        per_point = central_difference(f, x, 1e-6)
        stacked = central_difference(f_stack, x, 1e-6, stacked=True)
        assert stacked.shape == x.shape
        assert np.array_equal(per_point, stacked)

    def test_stacked_names_same_non_finite_coordinate(self):
        # Non-finite at the +h point of element 3 and at the -h point of
        # element 1: both paths name element 1, the first.
        def f(v):
            return np.inf if v[3] > 0 or v[1] < 0 else float(v.sum())

        def f_stack(points):
            return np.array([f(p) for p in points])

        messages = []
        for fn, stacked in ((f, False), (f_stack, True)):
            with pytest.raises(NumericalError, match="non-finite") as err:
                central_difference(fn, np.zeros(5), 1e-3, stacked=stacked)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("coordinate 1")

    def test_stacked_f_must_return_one_value_per_point(self):
        with pytest.raises(ValueError, match="returned shape"):
            central_difference(lambda p: np.zeros(3), np.ones(2), 1e-6, stacked=True)


def _random_setup(rng, n=6, c=4, d=5):
    units, _, _ = rows_normalize(rng.normal(size=(n, d)))
    protos, _, _ = rows_normalize(rng.normal(size=(c, d)))
    deltas = np.sort(rng.uniform(0, 0.15, size=c))
    return units, protos, deltas


class TestAlignmentProbe:
    def test_duplicated_samples_have_zero_residual(self):
        rng = np.random.default_rng(0)
        unit, _, _ = rows_normalize(rng.normal(size=(1, 5)))
        units = np.repeat(unit, 4, axis=0)
        protos, _, _ = rows_normalize(rng.normal(size=(3, 5)))
        deltas = np.array([0.0, 0.075, 0.15])
        probe = alignment_probe(units, 1, protos, deltas, MarginConfig())
        assert probe.prob_std == pytest.approx(0.0, abs=1e-12)
        assert probe.residual == pytest.approx(0.0, abs=1e-9)
        assert probe.bound == pytest.approx(0.0, abs=1e-9)

    def test_residual_below_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            units, protos, deltas = _random_setup(rng)
            cfg = MarginConfig(s=float(rng.choice([1.0, 32.0])))
            probe = alignment_probe(units, int(rng.integers(0, 4)), protos, deltas, cfg)
            assert probe.residual <= probe.bound + 1e-9

    def test_residual_shrinks_with_probability_spread(self):
        # Annealing the within-class scatter drives the probability spread
        # and the residual to zero together.
        rng = np.random.default_rng(2)
        base, _, _ = rows_normalize(rng.normal(size=(1, 6)))
        protos, _, _ = rows_normalize(rng.normal(size=(4, 6)))
        deltas = np.linspace(0, 0.15, 4)
        noise = rng.normal(size=(8, 6))
        residuals, stds = [], []
        for scale in (1e-1, 1e-2, 1e-3, 1e-4):
            units, _, _ = rows_normalize(base + scale * noise)
            probe = alignment_probe(units, 2, protos, deltas, MarginConfig(s=1.0))
            residuals.append(probe.residual)
            stds.append(probe.prob_std)
        assert np.all(np.diff(residuals) < 0)
        assert np.all(np.diff(stds) < 0)
        assert residuals[-1] < 1e-4

    def test_alpha_definition(self):
        rng = np.random.default_rng(3)
        units, protos, deltas = _random_setup(rng, n=5)
        probe = alignment_probe(units, 0, protos, deltas, MarginConfig())
        assert probe.alpha == pytest.approx(5 * (1 - probe.mean_prob))

    def test_needs_two_samples(self):
        rng = np.random.default_rng(4)
        units, protos, deltas = _random_setup(rng, n=1)
        with pytest.raises(ValueError, match="at least 2"):
            alignment_probe(units, 0, protos, deltas, MarginConfig())


class TestBoundProbe:
    def test_scalar_bound_value(self):
        # Frozen oracle: s = 1, m_y = 0.15, m_c = 0.05 -> e^0.1 = 1.10517...
        protos = np.eye(3)
        unit = protos[0]
        # With gamma such that scaled deltas are exactly what we need, use
        # am_softmax-style zero deltas and check the bound formula shape
        # through the returned fields instead.
        cfg = MarginConfig(s=1.0, m=0.15)
        deltas = np.zeros(3)
        probe = bound_probe(unit, 0, 2, protos, deltas, cfg)
        # scaled deltas are 0, so m_y = 0.15, m_c = 0 -> bound = e^0.15.
        assert probe.bound == pytest.approx(np.exp(0.15))
        assert 0 <= probe.grad_norm <= 1

    def test_grad_norm_is_probability(self):
        rng = np.random.default_rng(5)
        units, protos, deltas = _random_setup(rng, n=1)
        cfg = MarginConfig(s=32.0)
        probe = bound_probe(units[0], 0, 3, protos, deltas, cfg)
        assert 0.0 <= probe.grad_norm <= 1.0

    def test_inequality_holds_when_condition_met(self):
        rng = np.random.default_rng(6)
        met = 0
        for _ in range(500):
            c, d = 4, 6
            protos, _, _ = rows_normalize(rng.normal(size=(c, d)))
            deltas = np.sort(rng.uniform(0, 0.15, size=c))
            cfg = MarginConfig(s=float(rng.choice([1.0, 32.0])))
            unit, _, _ = rows_normalize(
                (protos[0] + 0.3 * rng.normal(size=d))[None, :]
            )
            probe = bound_probe(unit[0], 0, c - 1, protos, deltas, cfg)
            if probe.condition_met:
                met += 1
                assert probe.grad_norm <= probe.bound + 1e-9
        assert met > 0

    def test_same_class_rejected(self):
        rng = np.random.default_rng(7)
        units, protos, deltas = _random_setup(rng, n=1)
        with pytest.raises(ValueError, match="must differ"):
            bound_probe(units[0], 2, 2, protos, deltas, MarginConfig())


def _stack_inputs(rng, num_probes, n, c, d):
    units, _, _ = rows_normalize(rng.normal(size=(num_probes * n, d)))
    protos, _, _ = rows_normalize(rng.normal(size=(num_probes * c, d)))
    deltas = rng.uniform(0, 0.15, size=(num_probes, c))
    return units.reshape(num_probes, n, d), protos.reshape(num_probes, c, d), deltas


class TestStackedProbes:
    """A stacked call must equal one call per probe, field by field."""

    @pytest.mark.parametrize("s", [1.0, 32.0])
    def test_alignment_stack_matches_per_probe(self, s):
        rng = np.random.default_rng(8)
        units, protos, deltas = _stack_inputs(rng, 9, 5, 4, 6)
        class_ids = rng.integers(0, 4, size=9)
        cfg = MarginConfig(s=s, gamma=0.3)
        stacked = alignment_probe(units, class_ids, protos, deltas, cfg)
        for i in range(9):
            one = alignment_probe(units[i], int(class_ids[i]), protos[i], deltas[i], cfg)
            assert isinstance(one.residual, float) and isinstance(one.class_id, int)
            assert one.class_id == stacked.class_id[i]
            np.testing.assert_allclose(stacked.class_mean[i], one.class_mean, rtol=0, atol=1e-12)
            for name in ("mean_prob", "prob_std", "alpha", "residual", "bound"):
                assert getattr(stacked, name)[i] == pytest.approx(getattr(one, name),
                                                                  rel=0, abs=1e-12), name

    def test_alignment_stack_takes_one_class_for_all(self):
        rng = np.random.default_rng(9)
        units, protos, deltas = _stack_inputs(rng, 3, 4, 3, 5)
        cfg = MarginConfig()
        shared = alignment_probe(units, 2, protos, deltas, cfg)
        each = alignment_probe(units, np.full(3, 2), protos, deltas, cfg)
        np.testing.assert_array_equal(shared.residual, each.residual)
        np.testing.assert_array_equal(shared.class_id, [2, 2, 2])

    @pytest.mark.parametrize("s", [1.0, 32.0])
    def test_bound_stack_matches_per_probe(self, s):
        rng = np.random.default_rng(10)
        units, protos, deltas = _stack_inputs(rng, 12, 1, 5, 4)
        units = units[:, 0]
        labels = rng.integers(0, 4, size=12)
        tails = (labels + 1) % 5
        cfg = MarginConfig(s=s)
        stacked = bound_probe(units, labels, tails, protos, deltas, cfg)
        assert stacked.condition_met.shape == (12,)
        for i in range(12):
            one = bound_probe(units[i], int(labels[i]), int(tails[i]), protos[i], deltas[i], cfg)
            assert isinstance(one.condition_met, bool)
            assert one.condition_met == stacked.condition_met[i]
            assert one.tail_class == stacked.tail_class[i]
            assert stacked.grad_norm[i] == pytest.approx(one.grad_norm, rel=0, abs=1e-12)
            assert stacked.bound[i] == pytest.approx(one.bound, rel=1e-12, abs=1e-12)

    def test_bound_stack_rejects_any_same_class(self):
        rng = np.random.default_rng(11)
        units, protos, deltas = _stack_inputs(rng, 3, 1, 4, 4)
        with pytest.raises(ValueError, match="must differ"):
            bound_probe(units[:, 0], 0, np.array([3, 0, 2]), protos, deltas, MarginConfig())


def _record_probes(monkeypatch, **kwargs):
    """Run ``cli.verification_rows``; return its rows and, per claim, the
    arguments and result of every probe call it made."""
    calls = {"alignment": [], "bound": []}

    def recording(key, fn):
        def wrapper(*args):
            probe = fn(*args)
            calls[key].append((args, probe))
            return probe
        return wrapper

    monkeypatch.setattr(cli, "alignment_probe", recording("alignment", alignment_probe))
    monkeypatch.setattr(cli, "bound_probe", recording("bound", bound_probe))
    return cli.verification_rows(**kwargs), calls


class TestVerifyOracle:
    """Frozen outputs of ``dualmargin verify``. Every probe is drawn from
    one RNG stream, so a draw taken out of order changes these numbers."""

    def test_verify_csv_bytes_at_default_seed(self, tmp_path):
        out = str(tmp_path / "verify")
        assert cli.main(["verify", "--out", out]) == cli.EXIT_OK
        with open(os.path.join(out, "verify.csv"), "rb") as fh:
            assert fh.read() == (
                b"check,statistic,value,threshold,passed\r\n"
                b"gradcheck,max_rel_error,2.954041955494091e-09,1e-05,True\r\n"
                b"prototype_alignment,violations,0,0,True\r\n"
                b"deviation_bound,violations,0,0,True\r\n")

    @pytest.mark.parametrize("seed, gradcheck_error", [
        (0, b"4.395058761375026e-09"), (1, b"4.470941894485492e-09"),
        (7, b"4.398799047233837e-09"), (42, b"2.954041955494091e-09"),
        (100, b"4.057108426991363e-09"), (101, b"3.01335201235986e-09"),
        (102, b"4.210156730188874e-09"), (103, b"5.44569353586738e-09"),
        (104, b"3.3167116275656383e-09"), (105, b"2.8062278750740077e-09"),
        (106, b"3.0841650899837703e-09"), (107, b"3.4203903043206196e-09"),
        (108, b"4.263391917280757e-09"), (109, b"4.9882262764811e-09"),
    ])
    def test_verify_csv_bytes_per_seed(self, tmp_path, seed, gradcheck_error):
        out = str(tmp_path / "verify")
        assert cli.main(["verify", "--seed", str(seed), "--out", out]) == cli.EXIT_OK
        with open(os.path.join(out, "verify.csv"), "rb") as fh:
            assert fh.read() == (
                b"check,statistic,value,threshold,passed\r\n"
                b"gradcheck,max_rel_error," + gradcheck_error + b",1e-05,True\r\n"
                b"prototype_alignment,violations,0,0,True\r\n"
                b"deviation_bound,violations,0,0,True\r\n")

    def test_probe_sums(self, monkeypatch):
        rows, calls = _record_probes(monkeypatch, seed=0)
        assert [row[2] for row in rows[1:]] == [0, 0]
        align = [probe for _, probe in calls["alignment"]]
        bound = [probe for _, probe in calls["bound"]]
        assert sum(np.size(p.residual) for p in align) == 2000
        assert sum(np.sum(p.bound) for p in align) == pytest.approx(3006.913705047632, rel=1e-12)
        assert sum(np.sum(p.residual) for p in align) == pytest.approx(977.9656168905533, rel=1e-12)
        assert sum(np.size(p.condition_met) for p in bound) == 2000
        assert sum(int(np.sum(p.condition_met)) for p in bound) == 1380
        assert sum(np.sum(p.grad_norm) for p in bound) == pytest.approx(317.59037307071014, rel=1e-12)

    def test_verification_rows_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma lazily, which costs a cold verify
        # process about 10 ms; grouping three gamma values does not need it.
        code = ("import sys\n"
                "import numpy\n"
                "with_numpy = 'numpy.ma' in sys.modules\n"
                "from dualmargin import cli\n"
                "cli.verification_rows()\n"
                "print(with_numpy, 'numpy.ma' in sys.modules)\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        with_numpy, after_verify = result.stdout.splitlines()[-1].split()
        if with_numpy == "True":
            pytest.skip("this NumPy imports numpy.ma together with numpy")
        assert after_verify == "False"

    def test_each_stack_entry_is_its_own_probe(self, monkeypatch):
        # A claim's stack holds one scale; each of its entries is a probe
        # zero-padded to the claim's largest shape, whose real rows are unit
        # rows, and gives what an unstacked call on those rows gives.
        _, calls = _record_probes(monkeypatch, seed=0)
        for key in ("alignment", "bound"):
            assert sorted(args[-1].s for args, _ in calls[key]) == sorted(cli.SCALES), key
        for (units, class_ids, protos, deltas, cfg), probe in calls["alignment"]:
            assert units.shape[1:] == (8, 7) and protos.shape[1:] == (5, 7)
            for i in range(len(units)):
                real_units, real_protos, real_deltas = _unpad(units[i], protos[i], deltas[i])
                for stack in (real_units, real_protos):
                    np.testing.assert_allclose(np.linalg.norm(stack, axis=-1), 1.0,
                                               rtol=0, atol=1e-12)
                one = alignment_probe(real_units, int(class_ids[i]), real_protos, real_deltas,
                                      cfg)
                _assert_same_alignment(probe, i, one)
        for (units, label, tails, protos, deltas, cfg), probe in calls["bound"]:
            assert units.shape[1:] == (7,) and protos.shape[1:] == (6, 7)
            for i in range(len(units)):
                real_units, real_protos, real_deltas = _unpad(units[i][None], protos[i],
                                                              deltas[i])
                for stack in (real_units, real_protos):
                    np.testing.assert_allclose(np.linalg.norm(stack, axis=-1), 1.0,
                                               rtol=0, atol=1e-12)
                one = bound_probe(real_units[0], label, int(tails[i]), real_protos,
                                  real_deltas, cfg)
                _assert_same_bound(probe, i, one)

    def test_probe_counts_and_ranges(self, monkeypatch):
        rows, calls = _record_probes(monkeypatch)
        # The gradient-check instances are drawn first, before any probe.
        assert rows[0][2] == 2.954041955494091e-09
        assert [row[2:] for row in rows[1:]] == [(0, 0, True), (0, 0, True)]
        align = [args for args, _ in calls["alignment"]]
        bound = [args for args, _ in calls["bound"]]
        assert (len(align), len(bound)) == (len(cli.SCALES), len(cli.SCALES))
        assert sum(len(args[0]) for args in align) == 2000
        assert sum(len(args[0]) for args in bound) == 2000
        # Shapes are read from each probe's non-zero rows and columns. At
        # 2,000 probes every (shape, scale) group is drawn.
        groups = {"alignment": set(), "bound": set()}
        for units, class_ids, protos, deltas, cfg in align:
            assert cfg.s in cli.SCALES
            for i in range(len(units)):
                real_units, real_protos, real_deltas = _unpad(units[i], protos[i], deltas[i])
                (n, d), c = real_units.shape, len(real_protos)
                groups["alignment"].add((n, c, d, cfg.s))
                assert 2 <= n <= 8 and 2 <= c <= 5 and 3 <= d <= 7
                assert 0 <= class_ids[i] < c
                assert ((real_deltas >= 0) & (real_deltas < cfg.m)).all()
        for units, label, tails, protos, deltas, cfg in bound:
            assert cfg.s in cli.SCALES
            for i in range(len(units)):
                real_units, real_protos, real_deltas = _unpad(units[i][None], protos[i],
                                                              deltas[i])
                d, c = real_units.shape[1], len(real_protos)
                groups["bound"].add((c, d, cfg.s))
                assert 3 <= c <= 6 and 3 <= d <= 7
                assert (label, tails[i]) == (0, c - 1)
                assert ((real_deltas >= 0) & (real_deltas < cfg.m)).all()
                assert (np.diff(real_deltas) >= 0).all()  # increasing: tail last
        assert (len(groups["alignment"]), len(groups["bound"])) == (7 * 4 * 5 * 2, 4 * 5 * 2)


def _unpad(units, protos, deltas):
    """The real rows and columns of one zero-padded probe, after checking
    that the padding is all zero and trails the real rows and columns."""
    n, c = int(units.any(axis=-1).sum()), int(protos.any(axis=-1).sum())
    d = int(np.concatenate([units, protos]).any(axis=0).sum())
    for stack, rows in ((units, n), (protos, c)):
        assert not stack[rows:].any() and not stack[:, d:].any()
    assert not deltas[c:].any()
    return units[:n, :d], protos[:c, :d], deltas[:c]


def _assert_same_alignment(stacked, i, one):
    assert one.class_id == stacked.class_id[i]
    d = len(one.class_mean)
    np.testing.assert_allclose(stacked.class_mean[i][:d], one.class_mean, rtol=0, atol=1e-12)
    assert not stacked.class_mean[i][d:].any()
    for name in ("mean_prob", "prob_std", "alpha", "residual", "bound"):
        assert getattr(stacked, name)[i] == pytest.approx(getattr(one, name),
                                                          rel=0, abs=1e-12), name


def _assert_same_bound(stacked, i, one):
    assert one.condition_met == stacked.condition_met[i]
    assert one.tail_class == stacked.tail_class[i]
    for name in ("grad_norm", "bound"):
        assert getattr(stacked, name)[i] == pytest.approx(getattr(one, name),
                                                          rel=0, abs=1e-12), name


def _padded(rng, shapes, rows, cols):
    """Unit rows of ``shapes`` (count, dim) each, zero-padded into one
    (len(shapes), rows, cols) stack; also the unpadded arrays."""
    stack = np.zeros((len(shapes), rows, cols))
    real = []
    for i, (count, dim) in enumerate(shapes):
        real.append(rows_normalize(rng.normal(size=(count, dim)))[0])
        stack[i, :count, :dim] = real[-1]
    return stack, real


class TestPaddedProbes:
    """Probes of different shapes in one zero-padded stack: each entry must
    equal the unstacked call on its own unpadded arrays."""

    # (n, c, d) per alignment probe and (c, d) per bound probe: the smallest
    # and largest of each size that ``dualmargin verify`` draws, mixed.
    ALIGN = [(2, 2, 3), (8, 5, 7), (2, 5, 7), (8, 2, 3), (2, 2, 7), (8, 5, 3)]
    BOUND = [(3, 3), (6, 7), (3, 7), (6, 3)]

    @pytest.mark.parametrize("s", [1.0, 32.0])
    def test_alignment_entries_match_unpadded_calls(self, s):
        rng = np.random.default_rng(13)
        units, real_units = _padded(rng, [(n, d) for n, _, d in self.ALIGN], 8, 7)
        protos, real_protos = _padded(rng, [(c, d) for _, c, d in self.ALIGN], 5, 7)
        deltas = np.zeros((len(self.ALIGN), 5))
        class_ids = np.empty(len(self.ALIGN), dtype=np.int64)
        for i, (_, c, _) in enumerate(self.ALIGN):
            deltas[i, :c] = rng.uniform(0, 0.15, size=c)
            class_ids[i] = c - 1 - i % c
        cfg = MarginConfig(s=s, gamma=0.3)
        stacked = alignment_probe(units, class_ids, protos, deltas, cfg)
        for i, (_, c, _) in enumerate(self.ALIGN):
            one = alignment_probe(real_units[i], int(class_ids[i]), real_protos[i],
                                  deltas[i, :c], cfg)
            _assert_same_alignment(stacked, i, one)

    @pytest.mark.parametrize("s", [1.0, 32.0])
    def test_bound_entries_match_unpadded_calls(self, s):
        rng = np.random.default_rng(14)
        protos, real_protos = _padded(rng, self.BOUND, 6, 7)
        deltas = np.zeros((len(self.BOUND), 6))
        units = np.zeros((len(self.BOUND), 7))
        for i, (c, d) in enumerate(self.BOUND):
            deltas[i, :c] = np.sort(rng.uniform(0, 0.15, size=c))
            units[i, :d] = rows_normalize(real_protos[i][0] + 0.3 * rng.normal(size=d))[0]
        tails = np.array([c - 1 for c, _ in self.BOUND])
        cfg = MarginConfig(s=s, gamma=-0.4)
        stacked = bound_probe(units, 0, tails, protos, deltas, cfg)
        for i, (c, d) in enumerate(self.BOUND):
            one = bound_probe(units[i, :d], 0, c - 1, real_protos[i], deltas[i, :c], cfg)
            _assert_same_bound(stacked, i, one)

    def test_probe_with_one_real_row_still_raises(self):
        # One entry of the stack has a single real sample: std needs N >= 2.
        rng = np.random.default_rng(16)
        units, _ = _padded(rng, [(8, 7), (1, 3)], 8, 7)
        protos, _ = _padded(rng, [(5, 7), (2, 3)], 5, 7)
        with pytest.raises(ValueError, match="at least 2"):
            alignment_probe(units, 0, protos, np.zeros((2, 5)), MarginConfig())

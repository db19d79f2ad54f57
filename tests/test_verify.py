"""Unit tests for the finite-difference oracle and the two gradient claims."""

import numpy as np
import pytest

from dualmargin.core import rows_normalize
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
        with pytest.raises(ValueError, match="non-finite"):
            central_difference(lambda v: float("nan"), np.ones(2), 1e-6)


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

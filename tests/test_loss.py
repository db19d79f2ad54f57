"""Unit tests for the margin loss: scaling, regularizer, forward, backward."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dualmargin.core import NumericalError
from dualmargin.loss import (
    MarginConfig,
    margin_loss,
    margin_loss_forward,
    power_scaled_margins,
    zeta,
)
from dualmargin.verify import central_difference


class TestMarginConfig:
    def test_defaults(self):
        cfg = MarginConfig()
        assert cfg.s == 32.0
        assert cfg.m == 0.15
        assert cfg.beta == 0.9
        assert cfg.lam == 5.0
        assert cfg.mode == "dual_margin"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 0.0},
            {"m": 0.0},
            {"m": 1.0},
            {"beta": 1.0},
            {"lam": -1.0},
            {"mode": "banana"},
            {"eq5_sign": "banana"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MarginConfig(**kwargs)


class TestPowerScaledMargins:
    def test_zeta_above_one(self):
        assert zeta(0.0) == pytest.approx(1.0 + math.log(2.0))
        for g in (-10.0, -1.0, 0.0, 1.0, 10.0):
            assert zeta(g) > 1.0

    def test_zero_delta(self):
        np.testing.assert_allclose(power_scaled_margins(np.array([0.0]), 0.15, 3.7), [0.0])

    def test_full_delta(self):
        np.testing.assert_allclose(
            power_scaled_margins(np.array([0.15]), 0.15, -2.1), [-0.15]
        )

    def test_half_delta_scalar_value(self):
        # Frozen oracle: -0.15 * 0.5^(1 + log 2) = -0.0463877...
        out = power_scaled_margins(np.array([0.075]), 0.15, 0.0)
        assert out[0] == pytest.approx(-0.0463877, abs=1e-6)

    def test_magnitude_sign(self):
        lit = power_scaled_margins(np.array([0.075]), 0.15, 0.0, "literal")
        mag = power_scaled_margins(np.array([0.075]), 0.15, 0.0, "magnitude")
        np.testing.assert_allclose(mag, -lit)
        assert mag[0] > 0

    def test_bounded_by_m(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rng.uniform(0.05, 0.5)
            deltas = rng.uniform(0, m, size=6)
            out = power_scaled_margins(deltas, m, rng.normal())
            assert np.all(np.abs(out) <= m + 1e-12)

    def test_invalid_m(self):
        with pytest.raises(ValueError, match="m must be"):
            power_scaled_margins(np.array([0.1]), 0.0, 0.0)

    def test_gamma_gradient_matches_finite_difference(self):
        # The forward pass's d(scaled_delta)/d(gamma), against a central
        # difference of its scaled deltas in gamma.
        rng = np.random.default_rng(1)
        x, labels, w = rng.normal(size=(2, 4)), np.array([0, 2]), rng.normal(size=(3, 4))
        deltas = np.array([0.0, 0.04, 0.15])

        def scaled_and_grad(cfg):
            _, ctx = margin_loss_forward(x, labels, w, deltas, cfg)
            scaled = power_scaled_margins(deltas, cfg.m, cfg.gamma, cfg.eq5_sign)
            return scaled, ctx.dscaled_dgamma

        for sign in ("literal", "magnitude"):
            cfg = MarginConfig(gamma=rng.normal(), eq5_sign=sign)
            _, analytic = scaled_and_grad(cfg)
            h = 1e-6
            numeric = (
                scaled_and_grad(replace(cfg, gamma=cfg.gamma + h))[0]
                - scaled_and_grad(replace(cfg, gamma=cfg.gamma - h))[0]
            ) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, atol=1e-8)
            assert analytic[0] == 0.0  # zero delta has no gamma dependence


def _reg_value(deltas, gamma=0.0, sign="literal"):
    """The regularizer value of a forward pass with these adjustments
    (m = 0.15): at lam = 1 it is the total less the mean data term."""
    c = len(deltas)
    x, w = np.eye(c)[:1], np.eye(c)
    cfg = MarginConfig(m=0.15, gamma=gamma, eq5_sign=sign, lam=1.0)
    out, _ = margin_loss_forward(x, np.array([0]), w, np.asarray(deltas, dtype=float), cfg)
    return out.total - out.per_sample.mean()


class TestMarginRegularizer:
    def test_exact_match(self):
        # With the magnitude sign, deltas of 0 and m are their own scaled
        # margins, so the gaps are zero.
        assert _reg_value([0.0, 0.15], gamma=0.7, sign="magnitude") == 0.0

    def test_full_gap(self):
        m = 0.15
        # Literal sign maps delta = m to -m: a gap of 2m.
        assert _reg_value([0.0, m]) == pytest.approx(4 * m * m)

    def test_scalar_example(self):
        # Frozen oracle: (0.075 - (-0.0463877))^2 = 0.0147350...
        assert _reg_value([0.0, 0.075]) == pytest.approx(0.014735, abs=1e-6)

    def test_gamma_gradient(self):
        # The regularizer's share of grad_gamma (lam = 1 minus lam = 0, the
        # data term being the same) against a central difference of its value.
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        labels = np.array([0, 1, 2, 1])
        deltas = np.array([0.02, 0.075, 0.15])
        gamma = 0.3
        with_reg = margin_loss(x, labels, w, deltas, MarginConfig(gamma=gamma, lam=1.0))
        without = margin_loss(x, labels, w, deltas, MarginConfig(gamma=gamma, lam=0.0))
        dgamma = with_reg.grad_gamma - without.grad_gamma
        numeric = central_difference(lambda g: _reg_value(deltas, float(g[0])),
                                     np.array([gamma]), 1e-6)[0]
        assert dgamma == pytest.approx(numeric, rel=1e-6)

    def test_shape_mismatch(self):
        x, w = np.ones((1, 2)), np.ones((3, 2))
        with pytest.raises(ValueError, match="does not match 3 classes"):
            margin_loss_forward(x, np.array([0]), w, np.zeros(2), MarginConfig())


def _two_class_half_cosines():
    """Unit embedding with cosine 0.5 to both of two unit prototypes."""
    x = np.array([[1.0, 0.0, 0.0]])
    w = np.array(
        [
            [0.5, math.sqrt(0.75), 0.0],
            [0.5, 0.0, math.sqrt(0.75)],
        ]
    )
    return x, w


class TestForward:
    def test_uniform_logits(self):
        x, w = _two_class_half_cosines()
        # s = 1 and margins irrelevant via am_softmax with tiny m? Use ce on
        # symmetric raw logits instead: both dots are 0.5 -> uniform.
        cfg = MarginConfig(mode="ce")
        out, _ = margin_loss_forward(x, np.array([0]), w, None, cfg)
        assert out.per_sample[0] == pytest.approx(math.log(2.0))

    def test_margin_scalar_example(self):
        # Frozen oracle: z_y = z_k = 0.5, m_y = 0.15, m_k = 0, s = 32 gives
        # L = log(1 + exp(32 * (0.5 - (0.5 - 0.15)))) = log(1 + e^4.8).
        x, w = _two_class_half_cosines()
        cfg = MarginConfig(mode="am_softmax", s=32.0, m=0.15)
        out, _ = margin_loss_forward(x, np.array([0]), w, None, cfg)
        assert out.per_sample[0] == pytest.approx(4.808196067338268, rel=1e-12)

    def test_am_softmax_equals_zero_delta_dual(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, c, d = 5, 4, 6
            x = rng.normal(size=(n, d))
            w = rng.normal(size=(c, d))
            labels = rng.integers(0, c, size=n)
            am = MarginConfig(mode="am_softmax", lam=0.0)
            dm = MarginConfig(mode="dual_margin", lam=0.0)
            out_am, _ = margin_loss_forward(x, labels, w, None, am)
            out_dm, _ = margin_loss_forward(x, labels, w, np.zeros(c), dm)
            np.testing.assert_allclose(out_am.per_sample, out_dm.per_sample, atol=1e-12)
            assert abs(out_am.total - out_dm.total) <= 1e-12

    def test_ce_equals_plain_cross_entropy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(3, 4))
        labels = rng.integers(0, 3, size=6)
        out, _ = margin_loss_forward(x, labels, w, None, MarginConfig(mode="ce"))
        logits = x @ w.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(6), labels]
        np.testing.assert_allclose(out.per_sample, expected, atol=1e-12)

    def test_probs_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 5))
        w = rng.normal(size=(4, 5))
        labels = rng.integers(0, 4, size=8)
        deltas = np.array([0.0, 0.05, 0.1, 0.15])
        out, ctx = margin_loss_forward(x, labels, w, deltas, MarginConfig())
        np.testing.assert_allclose(ctx.probs.sum(axis=1), np.ones(8), atol=1e-10)
        assert np.all(out.per_sample >= 0)

    def test_total_combination(self):
        # lam switch-off and linear combination.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 3))
        labels = np.array([0, 1, 2, 0])
        deltas = np.array([0.0, 0.075, 0.15])
        off, _ = margin_loss_forward(x, labels, w, deltas, MarginConfig(lam=0.0))
        one, _ = margin_loss_forward(x, labels, w, deltas, MarginConfig(lam=1.0))
        on, _ = margin_loss_forward(x, labels, w, deltas, MarginConfig(lam=5.0))
        assert off.total == pytest.approx(off.per_sample.mean())
        reg_value = one.total - one.per_sample.mean()
        assert on.total == pytest.approx(on.per_sample.mean() + 5.0 * reg_value)
        assert reg_value > 0

    def test_scale_invariance_of_normalization(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(4, 5))
        labels = np.array([0, 1, 2])
        deltas = np.linspace(0, 0.15, 4)
        cfg = MarginConfig()
        base = margin_loss(x, labels, w, deltas, cfg)
        scaled = margin_loss(x * 7.0, labels, w, deltas, cfg)
        np.testing.assert_allclose(base.per_sample, scaled.per_sample, atol=1e-10)
        # Raw-space gradient norm scales inversely with the input scale.
        for i in range(3):
            n0 = np.linalg.norm(base.grad_embeddings[i])
            n1 = np.linalg.norm(scaled.grad_embeddings[i])
            assert n1 == pytest.approx(n0 / 7.0, rel=1e-8)

    def test_loss_monotone_in_target_margin(self):
        x, w = _two_class_half_cosines()
        losses = []
        for m in (0.05, 0.10, 0.15, 0.20):
            cfg = MarginConfig(mode="am_softmax", m=m)
            out, _ = margin_loss_forward(x, np.array([0]), w, None, cfg)
            losses.append(out.per_sample[0])
        assert np.all(np.diff(losses) > 0)

    def test_missing_deltas_error(self):
        x, w = _two_class_half_cosines()
        with pytest.raises(ValueError, match="requires deltas"):
            margin_loss_forward(x, np.array([0]), w, None, MarginConfig())

    def test_label_range_error(self):
        x, w = _two_class_half_cosines()
        with pytest.raises(ValueError, match="label outside"):
            margin_loss_forward(x, np.array([5]), w, None, MarginConfig(mode="ce"))

    def test_fused_call_rejects_out_of_range_label(self):
        # The per-call check stays on the public entry points; only the
        # trainer's plan path takes labels as checked.
        x, w = _two_class_half_cosines()
        with pytest.raises(ValueError, match=r"margin_loss: label outside \[0, 2\): -1"):
            margin_loss(x, np.array([-1]), w, np.array([0.0, 0.15]), MarginConfig())

    def test_non_finite_logit_reports_sample(self):
        x = np.array([[1.0, 0.0], [1e308, 1e308]])
        w = np.array([[1e308, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="sample 1"):
            margin_loss_forward(x, np.array([0, 1]), w, None, MarginConfig(mode="ce"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embedding_row_reports_sample(self, bad):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3))
        x[2, 1] = bad
        w = rng.normal(size=(3, 3))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="sample 2"):
            margin_loss_forward(x, np.array([0, 1, 2, 0]), w, np.array([0.0, 0.05, 0.15]),
                                MarginConfig())

    def test_per_sample_is_log_sum_exp_minus_target(self):
        # Large s makes the logits large; the max shift keeps them finite.
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(5, 4))
        labels = rng.integers(0, 5, size=6)
        deltas = np.linspace(0.0, 0.15, 5)
        cfg = MarginConfig(s=1000.0, gamma=0.4)
        out, _ = margin_loss_forward(x, labels, w, deltas, cfg)
        ux = x / np.linalg.norm(x, axis=1, keepdims=True)
        uw = w / np.linalg.norm(w, axis=1, keepdims=True)
        mm = np.tile(power_scaled_margins(deltas, cfg.m, cfg.gamma, cfg.eq5_sign), (6, 1))
        mm[np.arange(6), labels] += cfg.m
        z = cfg.s * (ux @ uw.T - mm)
        peak = z.max(axis=1)
        lse = peak + np.log(np.exp(z - peak[:, None]).sum(axis=1))
        np.testing.assert_allclose(out.per_sample, lse - z[np.arange(6), labels], rtol=1e-12)
        assert np.all(np.isfinite(out.per_sample))


class TestStackedForward:
    """A stacked forward must equal one call per parameter point, bit for bit."""

    @pytest.mark.parametrize("mode", ["dual_margin", "am_softmax", "ce"])
    @pytest.mark.parametrize("sign", ["literal", "magnitude"])
    def test_stack_matches_per_point(self, mode, sign):
        rng = np.random.default_rng(12)
        points, n, c, d = 6, 5, 4, 3
        x = rng.normal(size=(points, n, d))
        w = rng.normal(size=(points, c, d))
        x[2, 1] = 0.0  # a degenerate embedding row
        w[4, 3] = 0.0  # and a degenerate prototype row
        labels = rng.integers(0, c, size=n)
        deltas = np.array([0.0, 0.05, 0.1, 0.15])
        cfg = MarginConfig(mode=mode, eq5_sign=sign, gamma=-0.4, lam=1.0)
        stacked, stacked_ctx = margin_loss_forward(x, labels, w, deltas, cfg)
        assert stacked.total.shape == (points,)
        assert stacked.per_sample.shape == (points, n)
        for i in range(points):
            one, one_ctx = margin_loss_forward(x[i], labels, w[i], deltas, cfg)
            assert isinstance(one.total, float)
            assert np.array_equal(stacked.total[i], one.total)
            assert np.array_equal(stacked.per_sample[i], one.per_sample)
            assert np.array_equal(stacked_ctx.probs[i], one_ctx.probs)

    def test_stacked_context_has_no_backward(self):
        rng = np.random.default_rng(13)
        x, labels, w = rng.normal(size=(2, 3, 4)), np.array([0, 1, 1]), rng.normal(size=(2, 2, 4))
        cfg = MarginConfig(mode="am_softmax")
        with pytest.raises(ValueError, match="stacked forward has no backward"):
            margin_loss(x, labels, w, None, cfg)

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(ValueError, match="must be"):
            margin_loss_forward(np.ones((2, 3, 4)), np.zeros(3, dtype=int), np.ones((3, 2, 4)),
                                None, MarginConfig(mode="ce"))
        with pytest.raises(ValueError, match="must be"):
            margin_loss_forward(np.ones((2, 3, 4)), np.zeros(3, dtype=int), np.ones((2, 4)),
                                None, MarginConfig(mode="ce"))

    def test_non_finite_logit_names_stack_entry(self):
        x = np.ones((3, 2, 2))
        x[1, 1, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match="sample 1 of stack entry 1"):
            margin_loss_forward(x, np.array([0, 1]), np.ones((3, 2, 2)), None,
                                MarginConfig(mode="ce"))


class TestBackward:
    def _check_grads(self, cfg, n=4, c=3, d=5, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(c, d))
        labels = rng.integers(0, c, size=n)
        deltas = np.sort(rng.uniform(0, cfg.m, size=c))[::-1].copy()
        deltas[0] = 0.0
        deltas[-1] = cfg.m
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
        err = np.max(np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic)))
        assert err < 1e-5

    @pytest.mark.parametrize("mode", ["dual_margin", "am_softmax", "ce"])
    @pytest.mark.parametrize("s", [1.0, 32.0])
    def test_gradcheck(self, mode, s):
        self._check_grads(MarginConfig(mode=mode, s=s, gamma=0.3))

    def test_gradcheck_magnitude_sign(self):
        self._check_grads(MarginConfig(eq5_sign="magnitude", gamma=-0.5), seed=7)

    def test_saturated_sample_contributes_nothing(self):
        # A target logit of 1000 against 0 gives the target a probability
        # of exactly 1, so that sample contributes no gradient.
        x = np.array([[1000.0, 0.0], [0.4, 0.6]])
        out = margin_loss(x, np.array([0, 1]), np.eye(2), None, MarginConfig(mode="ce"))
        assert out.per_sample[0] == 0.0
        np.testing.assert_array_equal(out.grad_embeddings[0], 0.0)
        assert np.all(out.grad_embeddings[1] != 0.0)

    def test_mirrored_inputs_give_mirrored_gradients(self):
        x = np.array([[0.3, 0.7, -0.2]])
        w = np.array([[0.1, -0.4, 0.9], [0.5, 0.5, 0.0]])
        cfg = MarginConfig(mode="am_softmax")
        a = margin_loss(x, np.array([0]), w, None, cfg)
        b = margin_loss(x[:, :], np.array([1]), w[::-1].copy(), None, cfg)
        np.testing.assert_allclose(a.grad_embeddings, b.grad_embeddings, atol=1e-12)
        np.testing.assert_allclose(a.grad_prototypes, b.grad_prototypes[::-1], atol=1e-12)

    def test_degenerate_row_gets_zero_gradient(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        w = np.random.default_rng(8).normal(size=(2, 3))
        out = margin_loss(x, np.array([0, 1]), w, None, MarginConfig(mode="am_softmax"))
        np.testing.assert_allclose(out.grad_embeddings[0], 0.0)
        assert np.all(np.isfinite(out.grad_embeddings))

    def test_ce_zero_row_gets_raw_dot_gradient(self):
        # ce has no zero-norm guard: a zero embedding row scores 0 against
        # every prototype, and its gradient is the raw-dot ((p - onehot) / n) @ W.
        x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        w = np.random.default_rng(8).normal(size=(2, 3))
        labels = np.array([0, 1])
        out = margin_loss(x, labels, w, None, MarginConfig(mode="ce"))
        logits = x @ w.T
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = ((p - np.eye(2)[labels]) / 2) @ w
        np.testing.assert_allclose(out.grad_embeddings, expected, atol=1e-12)
        assert np.all(out.grad_embeddings[0] != 0.0)

"""Unit tests for the manual-backprop MLP encoder."""

import numpy as np
import pytest

from dualmargin import encoder
from dualmargin.loss import MarginConfig, margin_loss, margin_loss_forward
from dualmargin.verify import central_difference


class TestInitParams:
    def test_deterministic(self):
        a = encoder.init_params([4, 8, 3], seed=7)
        b = encoder.init_params([4, 8, 3], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shapes(self):
        params = encoder.init_params([4, 8, 3], seed=0)
        assert params.weights[0].shape == (8, 4)
        assert params.weights[1].shape == (3, 8)
        assert all(np.all(b == 0) for b in params.biases)
        assert params.dims == [4, 8, 3]

    def test_different_seeds_differ(self):
        a = encoder.init_params([4, 8, 3], seed=0)
        b = encoder.init_params([4, 8, 3], seed=1)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least"):
            encoder.init_params([4], seed=0)
        with pytest.raises(ValueError, match="positive"):
            encoder.init_params([4, 0, 3], seed=0)


class TestForward:
    def test_zero_params_annihilate(self):
        params = encoder.init_params([3, 4, 2], seed=0)
        for w in params.weights:
            w[:] = 0.0
        emb, _ = encoder.forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(emb, np.zeros((5, 2)))

    def test_identity_single_layer(self):
        params = encoder.init_params([3, 3], seed=0)
        params.weights[0][:] = np.eye(3)
        x = np.random.default_rng(1).normal(size=(4, 3))
        emb, _ = encoder.forward(params, x)
        np.testing.assert_allclose(emb, x)

    def test_width_mismatch(self):
        params = encoder.init_params([3, 2], seed=0)
        with pytest.raises(ValueError, match="feature width"):
            encoder.forward(params, np.ones((2, 5)))

    def test_layers_equal_the_out_of_place_expression(self):
        params = _random_params()
        x = np.random.default_rng(6).normal(size=(9, 5))
        emb, acts = encoder.forward(params, x)
        expected = _reference_activations(params, x)
        assert len(acts) == len(expected)
        for got, want in zip(acts, expected):
            assert np.array_equal(got, want)
        assert emb is acts[-1]

    def test_cached_layers_share_no_memory_and_input_is_unchanged(self):
        params = _random_params()
        x = np.random.default_rng(7).normal(size=(9, 5))
        before = x.copy()
        _, acts = encoder.forward(params, x)
        for i in range(len(acts)):
            for j in range(i + 1, len(acts)):
                assert not np.shares_memory(acts[i], acts[j]), (i, j)
        assert np.array_equal(x, before)


def _random_params():
    """Three layers with nonzero biases, so every term of a layer matters."""
    params = encoder.init_params([5, 7, 6, 3], seed=4)
    rng = np.random.default_rng(5)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    return params


def _reference_activations(params, x):
    """Each layer as one out-of-place expression: ``tanh(a @ w.T + b)``."""
    acts = [x]
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w.T + b
        if l < len(params.weights) - 1:
            z = np.tanh(z)
        acts.append(z)
    return acts


def _grad_buffers(params):
    """Filled with NaN, so a gradient the backward pass does not write shows."""
    return [(np.full_like(w, np.nan), np.full_like(b, np.nan))
            for w, b in zip(params.weights, params.biases)]


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = encoder.init_params([3, 4, 2], seed=0)
        x = np.random.default_rng(2).normal(size=(5, 3))
        _, cache = encoder.forward(params, x)
        grads = encoder.backward(params, cache, np.zeros((5, 2)), _grad_buffers(params))
        for dw, db in grads:
            np.testing.assert_array_equal(dw, 0.0)
            np.testing.assert_array_equal(db, 0.0)

    def test_writes_into_the_given_buffers(self):
        params = encoder.init_params([3, 4, 2], seed=0)
        _, cache = encoder.forward(params, np.random.default_rng(2).normal(size=(5, 3)))
        out = _grad_buffers(params)
        grads = encoder.backward(params, cache, np.ones((5, 2)), out)
        assert grads is out
        assert all(np.isfinite(dw).all() and np.isfinite(db).all() for dw, db in out)

    def test_linear_layer_outer_product(self):
        params = encoder.init_params([3, 2], seed=0)
        x = np.random.default_rng(3).normal(size=(4, 3))
        _, cache = encoder.forward(params, x)
        g = np.random.default_rng(4).normal(size=(4, 2))
        grads = encoder.backward(params, cache, g, _grad_buffers(params))
        np.testing.assert_allclose(grads[0][0], g.T @ x, atol=1e-12)
        np.testing.assert_allclose(grads[0][1], g.sum(axis=0), atol=1e-12)

    def test_composed_encoder_loss_gradcheck(self):
        rng = np.random.default_rng(5)
        dims = [4, 6, 3]
        params = encoder.init_params(dims, seed=11)
        feats = rng.normal(size=(4, 4))
        labels = rng.integers(0, 3, size=4)
        protos = rng.normal(size=(3, 3))
        deltas = np.array([0.0, 0.075, 0.15])
        cfg = MarginConfig()

        emb, cache = encoder.forward(params, feats)
        out = margin_loss(emb, labels, protos, deltas, cfg)
        param_grads = encoder.backward(params, cache, out.grad_embeddings,
                                       _grad_buffers(params))

        flat = np.concatenate(
            [w.ravel() for w in params.weights] + [b.ravel() for b in params.biases]
        )
        analytic = np.concatenate(
            [dw.ravel() for dw, _ in param_grads] + [db.ravel() for _, db in param_grads]
        )

        def f(theta):
            trial = encoder.EncoderParams(weights=[w.copy() for w in params.weights],
                                          biases=[b.copy() for b in params.biases])
            pos = 0
            for w in trial.weights:
                w[:] = theta[pos : pos + w.size].reshape(w.shape)
                pos += w.size
            for b in trial.biases:
                b[:] = theta[pos : pos + b.size]
                pos += b.size
            e, _ = encoder.forward(trial, feats)
            o, _ = margin_loss_forward(e, labels, protos, deltas, cfg)
            return o.total

        numeric = central_difference(f, flat, 1e-6)
        err = np.max(np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic)))
        assert err < 1e-5

    def test_equals_the_out_of_place_expression(self):
        params = _random_params()
        x = np.random.default_rng(8).normal(size=(9, 5))
        _, cache = encoder.forward(params, x)
        g = np.random.default_rng(9).normal(size=(9, 3))
        grads = encoder.backward(params, cache, g, _grad_buffers(params))
        acts = _reference_activations(params, x)
        delta = g
        for l in range(len(params.weights) - 1, -1, -1):
            assert np.array_equal(grads[l][0], delta.T @ acts[l])
            assert np.array_equal(grads[l][1], delta.sum(axis=0))
            if l:
                a = acts[l]
                delta = (delta @ params.weights[l]) * (1.0 - a * a)

    def test_shape_mismatch(self):
        params = encoder.init_params([3, 2], seed=0)
        _, cache = encoder.forward(params, np.ones((2, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            encoder.backward(params, cache, np.ones((2, 5)), _grad_buffers(params))


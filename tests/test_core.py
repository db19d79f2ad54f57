"""Unit tests for the numerical primitives."""

import numpy as np
import pytest

from dualmargin.core import (
    NORM_EPS,
    row_norms,
    rows_normalize,
    sigmoid,
    softplus,
    stable_softmax,
)


def _normalize_row(v):
    """``rows_normalize`` of one row: (unit, norm, degenerate)."""
    units, norms, mask = rows_normalize(np.asarray(v, dtype=np.float64)[None, :])
    return units[0], float(norms[0]), bool(mask[0])


class TestL2Normalize:
    """L2 normalization of single rows."""

    def test_three_four_five(self):
        unit, norm, degenerate = _normalize_row([3.0, 4.0])
        np.testing.assert_allclose(unit, [0.6, 0.8], atol=1e-15)
        assert norm == 5.0
        assert not degenerate

    def test_already_unit(self):
        unit, norm, degenerate = _normalize_row([1.0, 0.0, 0.0])
        np.testing.assert_allclose(unit, [1.0, 0.0, 0.0])
        assert norm == 1.0
        assert not degenerate

    def test_degenerate_guard(self):
        unit, norm, degenerate = _normalize_row([1e-30, 0.0])
        np.testing.assert_allclose(unit, [1.0, 0.0])
        assert norm == 1e-30
        assert degenerate

    def test_zero_vector(self):
        unit, norm, degenerate = _normalize_row(np.zeros(4))
        np.testing.assert_allclose(unit, [1.0, 0.0, 0.0, 0.0])
        assert norm == 0.0
        assert degenerate

    def test_random_unit_norms(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.normal(size=rng.integers(1, 10))
            unit, norm, degenerate = _normalize_row(v)
            if not degenerate:
                assert abs(np.linalg.norm(unit) - 1.0) <= 1e-12
                assert norm == pytest.approx(np.linalg.norm(v))


class TestRowsNormalize:
    def test_matches_vector_version(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(5, 3))
        units, norms, mask = rows_normalize(mat)
        for i in range(5):
            np.testing.assert_allclose(units[i], mat[i] / np.linalg.norm(mat[i]))
            assert norms[i] == pytest.approx(np.linalg.norm(mat[i]))
            assert not mask[i]

    def test_degenerate_row(self):
        mat = np.array([[0.0, 0.0], [3.0, 4.0]])
        units, norms, mask = rows_normalize(mat)
        np.testing.assert_allclose(units[0], [1.0, 0.0])
        np.testing.assert_allclose(units[1], [0.6, 0.8])
        assert list(mask) == [True, False]

    def test_stack_matches_flat_rows(self):
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(3, 4, 5))
        stack[1, 2] = 0.0  # a degenerate row inside the stack
        units, norms, mask = rows_normalize(stack)
        flat = rows_normalize(stack.reshape(-1, 5))
        assert units.shape == (3, 4, 5) and norms.shape == mask.shape == (3, 4)
        np.testing.assert_array_equal(units, flat[0].reshape(3, 4, 5))
        np.testing.assert_array_equal(norms, flat[1].reshape(3, 4))
        np.testing.assert_array_equal(mask, flat[2].reshape(3, 4))
        assert mask[1, 2] and mask.sum() == 1


class TestRowNorms:
    @pytest.mark.parametrize("shape", [(7, 16), (1, 3), (4, 6, 5), (3, 1)])
    def test_bit_equal_to_linalg_norm(self, shape):
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape[:-1] + (1,))
        x[(0,) * (x.ndim - 1)] = 0.0  # one zero row
        np.testing.assert_array_equal(row_norms(x), np.linalg.norm(x, axis=-1))

    def test_normalize_without_degenerate_rows_is_the_guarded_expression(self):
        # The unguarded division equals the np.where-guarded one bit for bit.
        rng = np.random.default_rng(4)
        for shape in [(32, 16), (52, 16), (5, 8, 7)]:
            mat = rng.normal(size=shape)
            units, norms, mask = rows_normalize(mat)
            assert not mask.any()
            norms_ref = np.sqrt((mat * mat).sum(axis=-1))
            np.testing.assert_array_equal(norms, norms_ref)
            np.testing.assert_array_equal(
                units, mat / np.where(norms_ref <= NORM_EPS, 1.0, norms_ref)[..., None])


class TestStableSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(stable_softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_no_overflow(self):
        probs = stable_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0, abs=1e-300)

    def test_one_two_three(self):
        # Frozen oracle: e^z / sum(e^z) for z = [1, 2, 3].
        probs = stable_softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            probs,
            [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
            rtol=1e-12,
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.normal(size=6)
            c = rng.normal() * 100
            np.testing.assert_allclose(
                stable_softmax(z), stable_softmax(z + c), atol=1e-12
            )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(7, 4)) * 10
        probs = stable_softmax(z, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(7), atol=1e-12)


class TestSoftplusSigmoid:
    def test_softplus_at_zero(self):
        assert softplus(0.0) == pytest.approx(np.log(2.0))

    def test_softplus_large(self):
        assert softplus(1000.0) == pytest.approx(1000.0)
        assert softplus(-1000.0) == pytest.approx(0.0, abs=1e-300)

    def test_sigmoid_values(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("x", [0.0, 1e-3, -1e-3, 5.0, -5.0, 1000.0, -1000.0])
    def test_sigmoid_scalar_is_float_equal_to_array_path(self, x):
        # The stable logistic on a float64 array, one branch per sign.
        arr = np.array([x])
        ex = np.exp(-np.abs(arr))
        array_value = np.where(arr >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))[0]
        for scalar in (x, np.float64(x), np.array(x)):
            value = sigmoid(scalar)
            assert type(value) is float
            assert np.float64(value).tobytes() == array_value.tobytes()

    def test_sigmoid_is_softplus_derivative(self):
        rng = np.random.default_rng(6)
        for x in rng.normal(size=20) * 3:
            h = 1e-6
            numeric = (softplus(x + h) - softplus(x - h)) / (2 * h)
            assert sigmoid(float(x)) == pytest.approx(float(numeric), rel=1e-6)

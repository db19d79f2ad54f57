"""Unit tests for per-class statistics and margin adjustments."""

import json

import numpy as np
import pytest

from dualmargin.priors import (
    BETWEEN,
    HEAD,
    TAIL,
    class_counts,
    compute_class_stats,
    effective_numbers,
    effective_priors,
    empirical_priors,
    margin_adjustments,
    partition_classes,
)


class TestClassCounts:
    def test_tally(self):
        np.testing.assert_array_equal(class_counts([0, 0, 1], 2), [2, 1])

    def test_empty(self):
        np.testing.assert_array_equal(class_counts([], 3), [0, 0, 0])

    def test_gap_class(self):
        np.testing.assert_array_equal(class_counts([2, 2, 2, 0], 3), [1, 0, 3])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="label outside"):
            class_counts([0, 5], 3)


class TestEmpiricalPriors:
    def test_ratio(self):
        np.testing.assert_allclose(empirical_priors([3, 1]), [0.75, 0.25])

    def test_symmetry(self):
        np.testing.assert_allclose(empirical_priors([5, 5]), [0.5, 0.5])

    def test_extreme_imbalance(self):
        # Frozen oracle: 6269/6275 and 6/6275.
        priors = empirical_priors([6269, 6])
        np.testing.assert_allclose(
            priors, [0.9990438247011952, 0.0009561752988047809], rtol=1e-12
        )

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty training set"):
            empirical_priors([0, 0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 100, size=rng.integers(2, 10))
            counts[0] = max(counts[0], 1)
            assert empirical_priors(counts).sum() == pytest.approx(1.0, abs=1e-12)


class TestEffectiveNumbers:
    def test_single_sample(self):
        assert effective_numbers([1], 0.9)[0] == pytest.approx(1.0, abs=1e-6)

    def test_two_samples(self):
        assert effective_numbers([2], 0.9)[0] == pytest.approx(1.9, abs=1e-6)

    def test_saturation(self):
        # Frozen oracle: (1 - 0.9^100)/0.1 = 9.99973439...; limit is 10.
        assert effective_numbers([100], 0.9)[0] == pytest.approx(9.999734, abs=1e-6)
        assert effective_numbers([500], 0.9)[0] == pytest.approx(10.0, abs=1e-6)

    def test_zero_count(self):
        assert effective_numbers([0], 0.9)[0] == 0.0

    def test_beta_zero_reduction(self):
        np.testing.assert_allclose(effective_numbers([5, 0, 1], 0.0), [1.0, 0.0, 1.0])

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError, match="beta"):
            effective_numbers([1], 1.0)

    def test_range_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            beta = rng.uniform(0.01, 0.999)
            counts = rng.integers(1, 1000, size=5)
            e = effective_numbers(counts, beta)
            assert np.all(e >= 1.0 - 1e-12)
            # The geometric limit 1/(1-beta) is reached exactly in floating
            # point once beta**n underflows relative to 1.
            assert np.all(e <= 1.0 / (1.0 - beta) + 1e-12)


class TestEffectivePriors:
    def test_balanced(self):
        out = effective_priors([0.5, 0.5], effective_numbers([7, 7], 0.9))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_two_class_example(self):
        # Frozen oracle: 0.5*(0.75 + 1.9/2.9) and 0.5*(0.25 + 1.0/2.9).
        out = effective_priors([0.75, 0.25], [1.9, 1.0])
        np.testing.assert_allclose(
            out, [0.7025862068965517, 0.2974137931034483], rtol=1e-12
        )

    def test_single_class(self):
        np.testing.assert_allclose(effective_priors([1.0], [3.0]), [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            counts = rng.integers(1, 500, size=rng.integers(2, 8))
            priors = empirical_priors(counts)
            e = effective_numbers(counts, 0.9)
            assert effective_priors(priors, e).sum() == pytest.approx(1.0, abs=1e-12)


class TestMarginAdjustments:
    def test_equal_priors_give_zero(self):
        np.testing.assert_allclose(margin_adjustments([0.25] * 4, 0.15), [0.0] * 4)

    def test_endpoints(self):
        deltas = margin_adjustments([0.9, 0.1], 0.15)
        assert deltas[0] == 0.0
        assert deltas[1] == pytest.approx(0.15)

    def test_three_class_example(self):
        # Frozen oracle: min-max of -log(rho) + 1e-6 scaled by m = 0.15;
        # the constant offset cancels, so the middle value is
        # m * log(0.7/0.2) / log(0.7/0.1) = 0.15 * ln(3.5)/ln(7).
        deltas = margin_adjustments([0.7, 0.2, 0.1], 0.15, 1e-6)
        np.testing.assert_allclose(
            deltas, [0.0, 0.09656892193379667, 0.15], atol=1e-9
        )

    def test_nonpositive_prior_error(self):
        with pytest.raises(ValueError, match="strictly positive"):
            margin_adjustments([0.5, 0.0], 0.15)

    def test_nonpositive_margin_error(self):
        with pytest.raises(ValueError, match="base margin"):
            margin_adjustments([0.5, 0.5], 0.0)

    def test_monotone_in_prior(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            priors = rng.dirichlet(np.ones(rng.integers(2, 8)))
            deltas = margin_adjustments(priors, 0.15)
            order = np.argsort(priors)
            sorted_deltas = deltas[order]  # priors ascending -> deltas descending
            assert np.all(np.diff(sorted_deltas) <= 1e-12)
            assert np.all(deltas >= -1e-15)
            assert np.all(deltas <= 0.15 + 1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        priors = rng.dirichlet(np.ones(6))
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            margin_adjustments(priors[perm], 0.15),
            margin_adjustments(priors, 0.15)[perm],
            atol=1e-15,
        )


class TestComputeClassStats:
    def test_pipeline_consistency(self):
        labels = np.array([0] * 50 + [1] * 10 + [2] * 2)
        stats = compute_class_stats(labels, 3, base_margin=0.15)
        np.testing.assert_array_equal(stats.counts, [50, 10, 2])
        assert stats.priors.sum() == pytest.approx(1.0)
        assert stats.effective_priors.sum() == pytest.approx(1.0)
        assert stats.deltas[0] == 0.0
        assert stats.deltas[2] == pytest.approx(0.15)
        assert stats.deltas[1] > 0
        # The margin map runs on the effective priors, not the raw ones.
        np.testing.assert_array_equal(stats.deltas,
                                      margin_adjustments(stats.effective_priors, 0.15))

    def test_zero_count_class_is_max_tail(self):
        labels = np.array([0] * 10 + [1] * 5)
        stats = compute_class_stats(labels, 3, base_margin=0.15)
        assert stats.deltas[2] == 0.15
        # Seen classes still span [0, m] among themselves.
        assert stats.deltas[0] == 0.0
        assert stats.deltas[1] == pytest.approx(0.15)

    def test_roundtrip_dict(self):
        labels = np.array([0, 0, 1])
        stats = compute_class_stats(labels, 2, 0.15)
        # The checkpoint stores the stats' fields as JSON; every value survives it.
        again = json.loads(json.dumps(vars(stats), default=np.ndarray.tolist))
        for name in ("counts", "priors", "effective_numbers", "effective_priors", "deltas"):
            np.testing.assert_array_equal(again[name], getattr(stats, name))
        assert again["num_classes"] == 2


class TestPartitionClasses:
    def test_reference_counts(self):
        part = partition_classes([6269, 983, 6], 2000, 100)
        np.testing.assert_array_equal(part, [HEAD, BETWEEN, TAIL])

    def test_all_tail(self):
        part = partition_classes([50, 50, 50], 2000, 100)
        assert np.all(part == TAIL)

    def test_boundary_strict(self):
        part = partition_classes([2001, 2000, 100, 99], 2000, 100)
        np.testing.assert_array_equal(part, [HEAD, BETWEEN, BETWEEN, TAIL])

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="below head"):
            partition_classes([1], 100, 100)
        with pytest.raises(ValueError, match="positive"):
            partition_classes([1], 100, 0)

"""Unit tests for batch planning, perturbation and norm-guided retention."""

import json

import numpy as np
import pytest

from dualmargin.priors import BETWEEN, TAIL, partition_classes
from dualmargin.sampler import BatchPlan, lowest_norm_indices, perturb, plan_batch, tail_pool


def _toy_population(seed=0):
    """60 samples: class 0 (40, head-ish), class 1 (15), class 2 (5, tail)."""
    labels = np.array([0] * 40 + [1] * 15 + [2] * 5)
    partition = partition_classes([40, 15, 5], head_threshold=30, tail_threshold=10)
    indices = np.arange(labels.size)
    return indices, labels, partition, np.random.default_rng(seed)


class TestPlanBatch:
    def test_p_zero_never_fires(self):
        indices, labels, partition, rng = _toy_population()
        for _ in range(50):
            plan = plan_batch(indices, labels, partition, 8, 4, 0.0, rng)
            assert not plan.oversample_fired
            assert plan.extra_indices.size == 0

    def test_p_one_always_fires_with_tail_indices(self):
        indices, labels, partition, rng = _toy_population()
        for _ in range(50):
            plan = plan_batch(indices, labels, partition, 8, 4, 1.0, rng)
            assert plan.oversample_fired
            assert plan.extra_indices.size == 4
            assert np.all(labels[plan.extra_indices] == 2)
            assert plan.perturbation_mask.size == 4

    def test_base_batch_unique_and_sized(self):
        indices, labels, partition, rng = _toy_population()
        plan = plan_batch(indices, labels, partition, 16, 4, 0.5, rng)
        assert plan.base_indices.size == 16
        assert np.unique(plan.base_indices).size == 16

    def test_firing_frequency(self):
        indices, labels, partition, rng = _toy_population(seed=42)
        fired = sum(
            plan_batch(indices, labels, partition, 4, 2, 0.1, rng).oversample_fired
            for _ in range(2000)
        )
        assert 0.08 <= fired / 2000 <= 0.12

    def test_no_tail_pool_falls_back(self):
        labels = np.array([0] * 30 + [1] * 30)
        partition = partition_classes([30, 30], head_threshold=100, tail_threshold=10)
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning, match="no tail-class samples"):
            plan = plan_batch(np.arange(60), labels, partition, 8, 4, 1.0, rng)
        assert not plan.oversample_fired
        assert plan.extra_indices.size == 0

    def test_too_small_population(self):
        indices, labels, partition, rng = _toy_population()
        with pytest.raises(ValueError, match="need at least"):
            plan_batch(indices[:4], labels, partition, 8, 2, 0.1, rng)

    def test_deterministic_given_rng(self):
        indices, labels, partition, _ = _toy_population()
        a = plan_batch(indices, labels, partition, 8, 4, 0.5,
                       np.random.default_rng(123))
        b = plan_batch(indices, labels, partition, 8, 4, 0.5,
                       np.random.default_rng(123))
        np.testing.assert_array_equal(a.base_indices, b.base_indices)
        np.testing.assert_array_equal(a.extra_indices, b.extra_indices)
        assert a.oversample_fired == b.oversample_fired


class TestTailPool:
    def test_pool_is_the_tail_training_ids(self):
        indices, labels, partition, _ = _toy_population()
        pool = tail_pool(indices[::2], labels, partition)
        np.testing.assert_array_equal(pool, [56, 58])
        assert pool.dtype == np.int64

    @pytest.mark.parametrize("prob, size", [(0.0, 4), (0.5, 4), (1.0, 4), (1.0, 0)])
    def test_given_pool_plans_as_computed_pool(self, prob, size):
        # Same plans and the same generator state after, with and without it.
        indices, labels, partition, _ = _toy_population()
        pool = tail_pool(indices, labels, partition)
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(40):
            a = plan_batch(indices, labels, partition, 8, size, prob, rng_a, 0.5)
            b = plan_batch(indices, labels, partition, 8, size, prob, rng_b, 0.5,
                           pool=pool)
            assert a.json_line() == b.json_line()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_given_empty_pool_warns_as_computed_pool(self):
        labels = np.array([0] * 30 + [1] * 30)
        partition = partition_classes([30, 30], head_threshold=100, tail_threshold=10)
        pool = tail_pool(np.arange(60), labels, partition)
        assert pool.size == 0
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        with pytest.warns(UserWarning, match="no tail-class samples"):
            a = plan_batch(np.arange(60), labels, partition, 8, 4, 1.0, rng_a)
        with pytest.warns(UserWarning, match="no tail-class samples"):
            b = plan_batch(np.arange(60), labels, partition, 8, 4, 1.0, rng_b,
                           pool=pool)
        assert a.json_line() == b.json_line()
        assert not b.oversample_fired
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("tail_count", [1, 2, 7, 64, 500])
    def test_extra_rows_are_generator_choice_draws(self, tail_count):
        # The extra rows equal Generator.choice(pool, k, replace=True) drawn
        # at the same point of the stream, which leaves the same state.
        labels = np.array([0] * 40 + [1] * tail_count)
        partition = np.array([BETWEEN, TAIL])
        indices = np.arange(labels.size)
        pool = indices[40:]
        for seed in range(6):
            for size in (1, 8, 33):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                plan = plan_batch(indices, labels, partition, 8, size, 1.0, rng, 0.5)
                np.testing.assert_array_equal(
                    plan.base_indices, ref.choice(indices, size=8, replace=False))
                ref.random()
                expected = ref.choice(pool, size=size, replace=True)
                np.testing.assert_array_equal(plan.extra_indices, expected)
                assert plan.extra_indices.dtype == expected.dtype
                np.testing.assert_array_equal(plan.perturbation_mask,
                                              ref.random(size) < 0.5)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestPlanJsonLine:
    @staticmethod
    def _dumps(plan):
        return json.dumps({
            "base_indices": plan.base_indices.tolist(),
            "extra_indices": plan.extra_indices.tolist(),
            "oversample_fired": plan.oversample_fired,
            "perturbation_mask": plan.perturbation_mask.tolist(),
        }) + "\n"

    @pytest.mark.parametrize("p", [0.0, 1.0])  # unfired (empty arrays) and fired
    def test_planned_batches_match_json_dumps(self, p):
        indices, labels, partition, rng = _toy_population(seed=3)
        for _ in range(20):
            plan = plan_batch(indices, labels, partition, 8, 4, p, rng, perturb_prob=0.5)
            assert plan.json_line() == self._dumps(plan)

    def test_all_false_mask(self):
        plan = BatchPlan(base_indices=np.array([5, 7], dtype=np.int64),
                         extra_indices=np.array([59, 59, 57], dtype=np.int64),
                         oversample_fired=True,
                         perturbation_mask=np.zeros(3, dtype=bool))
        assert plan.json_line() == self._dumps(plan)


class TestPerturb:
    def test_zero_strength_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        out = perturb(x, rng.normal(size=(5, 3)), 0.0, rng)
        np.testing.assert_array_equal(out, x)

    def test_zero_input_gets_nonzero_output(self):
        rng = np.random.default_rng(1)
        x = np.zeros((3, 4))
        out = perturb(x, np.zeros((3, 4)), 0.1, rng)
        assert np.all(np.linalg.norm(out, axis=1) > 0)

    def test_mean_preserved_under_symmetric_mixing(self):
        # Partner differences and additive noise are mean-zero, so the
        # Monte-Carlo mean stays near the input (3 sigma band).
        rng = np.random.default_rng(2)
        x = np.full((1, 2), 1.5)
        draws = 20000
        strength = 0.2
        acc = np.zeros(2)
        for _ in range(draws):
            partner = 1.5 + rng.normal(0, 0.3, size=(1, 2))
            acc += perturb(x, partner, strength, rng)[0]
        mean = acc / draws
        # Var per draw is bounded by mixing-var + noise-var; 3 sigma of the mean.
        sigma = np.sqrt((0.2**2 * 0.3**2 / 3 + strength**2) / draws)
        assert np.all(np.abs(mean - 1.5) < 5 * sigma + 1e-3)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="strength"):
            perturb(np.ones((2, 2)), np.ones((2, 2)), -1.0, rng)
        with pytest.raises(ValueError, match="shape mismatch"):
            perturb(np.ones((2, 2)), np.ones((3, 2)), 0.1, rng)


class TestNormSelect:
    def test_order_statistics(self):
        rows = lowest_norm_indices(np.array([3.0, 1.0, 2.0, 5.0]), 2)
        np.testing.assert_array_equal(rows, [1, 2])

    def test_all_equal_takes_first_by_index(self):
        rows = lowest_norm_indices(np.ones(6), 3)
        np.testing.assert_array_equal(rows, [0, 1, 2])

    def test_retained_norms_below_discarded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 15))
            keep = int(rng.integers(1, n))
            norms = np.linalg.norm(rng.normal(size=(n, 4)) * rng.uniform(0.1, 3), axis=1)
            rows = lowest_norm_indices(norms, keep)
            discarded = np.setdiff1d(np.arange(n), rows)
            assert norms[rows].max() <= norms[discarded].min()

    def test_too_few_candidates(self):
        with pytest.raises(ValueError, match="candidates"):
            lowest_norm_indices(np.ones(2), 3)

"""Unit tests for closed-set metrics and open-set calibration."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dualmargin import encoder
from dualmargin.core import rows_normalize
from dualmargin.evaluation import (
    SCORE_BLOCK_ROWS,
    calibrate_threshold,
    closed_set_metrics,
    open_set_eval,
    open_set_scores,
    prototype_scores,
)
from dualmargin.priors import partition_classes


def _identity_encoder(dim):
    """A single linear layer that passes features through unchanged."""
    return encoder.EncoderParams(weights=[np.eye(dim)], biases=[np.zeros(dim)])


class TestPredict:
    """Each row's best class and score from ``prototype_scores``."""

    def test_self_prototype(self):
        protos = np.eye(4)
        best_class, best = prototype_scores(_identity_encoder(4), protos, protos, [3], cosine=True)
        assert best_class.tolist() == [3]
        assert best[0] == pytest.approx(1.0)

    def test_tie_goes_to_lower_index(self):
        units = np.array([[1.0, 0.0]])
        protos = np.array([[0.6, 0.8], [0.6, -0.8]])
        best_class, _ = prototype_scores(_identity_encoder(2), protos, units, [0], cosine=True)
        assert best_class.tolist() == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, 5))
        protos = rng.normal(size=(7, 5))
        index = rng.permutation(50)[:30]  # rows are gathered by index, in its order
        best_class, best = prototype_scores(_identity_encoder(5), protos, feats, index,
                                            cosine=True)
        units, _, _ = rows_normalize(feats)
        unit_protos, _, _ = rows_normalize(protos)
        for i, row in enumerate(index):
            sims = unit_protos @ units[row]
            assert best_class[i] == np.argmax(sims)
            assert best[i] == pytest.approx(sims.max())

    def test_ce_uses_raw_dot_products(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(6, 3))
        protos = rng.normal(size=(4, 3)) * np.array([[0.1], [5.0], [1.0], [2.0]])
        enc = _identity_encoder(3)
        best_class, best = prototype_scores(enc, protos, feats, np.arange(6), cosine=False)
        np.testing.assert_array_equal(best_class, np.argmax(feats @ protos.T, axis=1))
        np.testing.assert_array_equal(best, (feats @ protos.T).max(axis=1))
        _, cosines = prototype_scores(enc, protos, feats, np.arange(6), cosine=True)
        assert not np.allclose(best, cosines)


# The unblocked formula and the blocked path in one process whose BLAS runs
# on one thread, as the benchmark runs it: a multi-threaded BLAS splits a
# product at shape-dependent rows, so even the unblocked scores can change
# bits with the thread count. The rows are a shuffled subset of the feature
# matrix, scored once with block arrays made by the call and once in a work
# buffer filled with NaNs first (nothing is read before it is written).
_BLOCKED_VS_UNBLOCKED = """
import sys
import numpy as np
from dualmargin import encoder, evaluation
from dualmargin.core import rows_normalize
cosine, extra = sys.argv[1] == "True", int(sys.argv[2])
block = evaluation.SCORE_BLOCK_ROWS
rows = 2 * block + extra  # blocks of block and block + extra rows
dims, classes = [64, 256, 128, 64], 200
enc = encoder.init_params(dims, seed=3)
rng = np.random.default_rng(5)
feats = rng.normal(size=(rows + 500, dims[0]))
index = rng.permutation(rows + 500)[:rows]
protos = rng.normal(size=(classes, dims[-1]))
emb = encoder.forward(enc, feats[index])[0]
if cosine:
    expected = rows_normalize(emb)[0] @ rows_normalize(protos)[0].T
else:
    expected = emb @ protos.T
work = np.full(evaluation.scoring_bytes(dims, classes, rows, cosine), 255, np.uint8)
for buffer in (None, work):
    best_class, best = evaluation.prototype_scores(enc, protos, feats, index, cosine, buffer)
    print(bool(np.array_equal(best_class, np.argmax(expected, axis=1))
               and np.array_equal(best, expected.max(axis=1))))
"""


class TestPrototypeScoresBlocks:
    @pytest.mark.parametrize("extra", [1, 300])
    @pytest.mark.parametrize("cosine", [True, False])
    def test_blocked_equals_unblocked(self, cosine, extra):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run(
            [sys.executable, "-c", _BLOCKED_VS_UNBLOCKED, str(cosine), str(extra)],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "True"]

    @pytest.mark.parametrize("index", [[0, 3], [-1]])
    def test_index_out_of_range(self, index):
        # Rows are gathered without NumPy's bounds check, which would copy
        # each block first, so the call checks the index once.
        with pytest.raises(IndexError, match=r"outside \[0, 3\)"):
            prototype_scores(_identity_encoder(3), np.eye(3), np.eye(3), index, cosine=True)

    def test_empty_features(self):
        best_class, best = prototype_scores(_identity_encoder(3), np.eye(3), np.zeros((0, 3)),
                                            [], cosine=True)
        assert best_class.shape == best.shape == (0,)


class TestPrototypeScoresMemory:
    @pytest.mark.parametrize("cosine", [True, False])
    def test_peak_stays_within_the_layer_outputs(self, cosine):
        # Only one block's arrays (its gathered rows and the two regions its
        # layer outputs, unit rows and scores alternate between: 256 and 128
        # wide, or 256 and 200 in ce, where the scores follow the embeddings;
        # the last block also takes the 100-row remainder),
        # the encoder's one-byte finiteness mask of its input, the two
        # per-row outputs and the unit prototypes coexist: no copy of the
        # rows, no (rows, classes) matrix, no array per block or layer.
        dims = [64, 256, 128, 64]
        block = SCORE_BLOCK_ROWS
        rows = 3 * block + 100
        classes = 200
        enc = encoder.init_params(dims, seed=0)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(rows, dims[0]))
        index = np.arange(rows)
        protos = rng.normal(size=(classes, dims[-1]))
        widths = dims[0] + 256 + (128 if cosine else classes)
        block_bytes = (block + 100) * widths * 8
        allowed = block_bytes + (block + 100) * dims[0] + rows * 16 + protos.nbytes + 16 * 1024
        tracemalloc.start()
        try:
            prototype_scores(enc, protos, feats, index, cosine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= allowed, (peak, allowed)
        assert peak < block_bytes + rows * classes * 8 / 4  # far below a score matrix


class TestOpenSetScores:
    def test_cosine_is_max_similarity(self):
        rng = np.random.default_rng(1)
        units, _, _ = rows_normalize(rng.normal(size=(10, 4)))
        protos, _, _ = rows_normalize(rng.normal(size=(3, 4)))
        scores = open_set_scores(units, protos, kind="cosine")
        np.testing.assert_allclose(scores, (units @ protos.T).max(axis=1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="score kind"):
            open_set_scores(np.ones((1, 2)), np.ones((1, 2)), kind="banana")


class TestClosedSetMetrics:
    def _partition(self, counts):
        return partition_classes(counts, head_threshold=2000, tail_threshold=100)

    def test_all_correct(self):
        labels = np.array([0, 1, 2, 0])
        report = closed_set_metrics(labels, labels, self._partition([3000, 500, 50]), 3)
        assert report.rank1 == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_head_bias_gap(self):
        # 9-of-9 correct on the head class, 0-of-1 on the tail class:
        # rank1 stays high while macro recall collapses to the mean.
        labels = np.array([0] * 9 + [1])
        preds = np.array([0] * 10)
        report = closed_set_metrics(preds, labels, self._partition([5000, 10]), 2)
        assert report.rank1 == pytest.approx(0.9)
        assert report.macro_recall == pytest.approx(0.5)
        assert report.group_recall["head"] == pytest.approx(1.0)
        assert report.group_recall["tail"] == pytest.approx(0.0)

    def test_against_tally_oracle(self):
        rng = np.random.default_rng(3)
        num_classes = 5
        labels = rng.integers(0, num_classes, size=200)
        preds = rng.integers(0, num_classes, size=200)
        report = closed_set_metrics(
            preds, labels, self._partition([3000, 1000, 500, 50, 5]), num_classes
        )
        recalls, precisions = [], []
        for j in range(num_classes):
            support = np.sum(labels == j)
            predicted = np.sum(preds == j)
            correct = np.sum((labels == j) & (preds == j))
            if support:
                recalls.append(correct / support)
                precisions.append(correct / predicted if predicted else 0.0)
        assert report.macro_recall == pytest.approx(np.mean(recalls))
        assert report.macro_precision == pytest.approx(np.mean(precisions))
        assert report.rank1 == pytest.approx(np.mean(preds == labels))

    def test_absent_class_excluded(self):
        labels = np.array([0, 0, 1])
        preds = np.array([0, 1, 1])
        report = closed_set_metrics(preds, labels, self._partition([10, 10, 10]), 3)
        assert np.isnan(report.per_class_recall[2])
        assert report.macro_recall == pytest.approx((0.5 + 1.0) / 2)
        assert report.group_sizes == {"head": 0, "between": 0, "tail": 2}

    def test_empty_test_set(self):
        with pytest.raises(ValueError, match="empty test set"):
            closed_set_metrics(np.array([]), np.array([]), self._partition([1]), 1)


class TestCalibrateThreshold:
    def test_order_statistic_example(self):
        scores = np.arange(1, 101) / 100.0
        tau, achieved = calibrate_threshold(scores, 0.95)
        assert tau == pytest.approx(0.06)
        assert achieved == pytest.approx(0.95)

    def test_all_equal(self):
        tau, achieved = calibrate_threshold(np.full(30, 0.7), 0.95)
        assert tau == pytest.approx(0.7)
        assert achieved == 1.0

    def test_target_one_gives_min(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=50)
        tau, achieved = calibrate_threshold(scores, 1.0)
        assert tau == pytest.approx(scores.min())
        assert achieved == 1.0

    def test_too_few_scores(self):
        with pytest.raises(ValueError, match="granularity"):
            calibrate_threshold(np.ones(19), 0.95)

    def test_achieved_at_least_target(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores = rng.normal(size=rng.integers(20, 200))
            target = rng.uniform(0.5, 1.0)
            tau, achieved = calibrate_threshold(scores, target)
            assert achieved >= target - 1e-12
            # Overshoot below one order statistic.
            assert achieved - target < 1.0 / scores.size + 1e-12


class TestOpenSetEval:
    def test_perfect_separation(self):
        out = open_set_eval(np.array([0.9, 0.8]), np.array([0.1, 0.2]), 0.5)
        assert out["tpr"] == 1.0
        assert out["tnr"] == 1.0
        assert out["acc"] == 1.0

    def test_unknowns_above_threshold(self):
        out = open_set_eval(np.array([0.9]), np.array([0.8, 0.9]), 0.5)
        assert out["tnr"] == 0.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(6)
        known = rng.normal(0.6, 0.2, size=80)
        unknown = rng.normal(0.3, 0.2, size=40)
        tau = 0.45
        out = open_set_eval(known, unknown, tau)
        assert out["tpr"] == pytest.approx(np.mean(known >= tau))
        assert out["tnr"] == pytest.approx(np.mean(unknown < tau))
        expected_acc = (np.sum(known >= tau) + np.sum(unknown < tau)) / 120
        assert out["acc"] == pytest.approx(expected_acc)

    def test_acc_between_rates_for_equal_sizes(self):
        rng = np.random.default_rng(7)
        known = rng.normal(0.5, 0.3, size=50)
        unknown = rng.normal(0.4, 0.3, size=50)
        out = open_set_eval(known, unknown, 0.45)
        assert min(out["tpr"], out["tnr"]) - 1e-12 <= out["acc"]
        assert out["acc"] <= max(out["tpr"], out["tnr"]) + 1e-12

    def test_empty_sets(self):
        with pytest.raises(ValueError, match="nonempty"):
            open_set_eval(np.array([]), np.array([0.5]), 0.5)

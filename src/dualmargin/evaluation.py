"""Closed-set metrics and open-set threshold calibration.

Macro metrics are unweighted means over classes that have at least one
test sample; group aggregates are means over member classes. The
open-set score of a sample is its maximum cosine similarity to any known
prototype.

Scoring (``prototype_scores``) runs in row blocks of ``SCORE_BLOCK_ROWS``
rows, gathered from the features by index; each block goes through the
encoder, the row normalization and the prototype matmul, and leaves each
row's best class and score. One set of block arrays, sized for the largest
block, serves every block: the gathered rows, and two regions that the
layer outputs, the unit rows and the scores alternate between. So scoring
holds one block's arrays whatever the split size, and no (rows, classes)
matrix; the trainer carves them from its work buffer.

Blocks start at multiples of ``SCORE_BLOCK_ROWS``, and a remainder shorter
than a block joins the last block rather than forming its own: BLAS picks
its kernel by shape, and a short block could land on one that rounds
differently (a one-row product goes to matrix-vector code, and OpenBLAS
has separate small-matrix kernels). The tests check that the scores equal
the unblocked formula bit for bit with BLAS on one thread, as the
benchmark runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .core import carve, carved_bytes, rows_normalize
from .priors import GROUP_NAMES

# Rows per scoring block (the last block also takes a shorter remainder).
SCORE_BLOCK_ROWS = 1024

# Fewest known validation scores a threshold is calibrated on: with fewer,
# a 95% TPR target cannot be resolved.
MIN_CALIBRATION_SCORES = 20


@dataclass
class EvalReport:
    rank1: float
    per_class_recall: np.ndarray
    per_class_precision: np.ndarray
    per_class_f1: np.ndarray
    macro_recall: float
    macro_precision: float
    macro_f1: float
    group_recall: dict[str, float]
    group_sizes: dict[str, int]  # classes each group recall averages over
    open_set: dict[str, float] | None = None


def _score_blocks(rows: int) -> list[tuple[int, int]]:
    """The (start, stop) of each scoring block of ``rows`` rows."""
    starts = list(range(0, max(rows - SCORE_BLOCK_ROWS, 0) + 1, SCORE_BLOCK_ROWS))
    return list(zip(starts, [*starts[1:], rows]))


def _outputs(dims: list[int], classes: int, cosine: bool) -> list[int]:
    """The widths of what a block computes: each layer's output, the unit
    rows (``cosine`` only), then the scores. The i-th goes into region
    i % 2, over the (i - 2)-th, which is read by now."""
    return [*dims[1:], *dims[-1:] * cosine, classes]


def _block_specs(dims: list[int], classes: int, rows: int, cosine: bool,
                 feature_dtype, dtype) -> list:
    """``carve``'s specs of the block arrays for ``rows`` rows: the gathered
    rows and the two flat regions."""
    block = max(stop - start for start, stop in _score_blocks(rows))
    outputs = _outputs(dims, classes, cosine)
    return [((block, dims[0]), feature_dtype), ((block * max(outputs[0::2]),), dtype),
            ((block * max(outputs[1::2]),), dtype)]


def scoring_bytes(dims: list[int], classes: int, rows: int, cosine: bool) -> int:
    """The length of the ``work`` buffer ``prototype_scores`` takes for
    ``rows`` float64 rows and an encoder of widths ``dims``."""
    return carved_bytes(_block_specs(dims, classes, rows, cosine, np.float64, np.float64))


def prototype_scores(
    enc: encoder.EncoderParams, prototypes: np.ndarray, features: np.ndarray,
    index: np.ndarray, cosine: bool, work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score the raw feature rows ``features[index]`` against every class
    prototype; return each row's best class and best score.

    The rows pass through the encoder. With ``cosine`` set, the scores are
    cosines between unit embeddings and unit prototype rows; otherwise they
    are raw dot products (the ``ce`` decision rule). A tie goes to the
    lower class. The block arrays are views of the byte buffer ``work``, or
    made here.
    """
    index = np.asarray(index, dtype=np.intp)
    rows = index.size
    if rows and not (index.min() >= 0 and index.max() < features.shape[0]):
        raise IndexError(f"prototype_scores: index outside [0, {features.shape[0]})")
    dtype = np.result_type(features, enc.weights[0])
    if cosine:
        prototypes = rows_normalize(prototypes)[0]
    classes = prototypes.shape[0]
    gathered, *regions = carve(work, _block_specs(
        enc.dims, classes, rows, cosine, features.dtype, dtype))
    best_class, best = np.empty(rows, np.intp), np.empty(rows, dtype)
    for start, stop in _score_blocks(rows):
        k = stop - start
        outputs = [regions[i % 2][:k * w].reshape(k, w)
                   for i, w in enumerate(_outputs(enc.dims, classes, cosine))]
        # "clip" clips nothing here and, unlike "raise", copies nothing first.
        x = features.take(index[start:stop], axis=0, out=gathered[:k], mode="clip")
        # No helper: row halves at once would collide in the shared regions.
        emb = encoder.forward(enc, x, out=outputs[:len(enc.weights)])[0]
        if cosine:
            emb = rows_normalize(emb, out=outputs[-2])[0]
        block = np.matmul(emb, prototypes.T, out=outputs[-1])
        np.argmax(block, axis=1, out=best_class[start:stop])
        np.maximum.reduce(block, axis=1, out=best[start:stop])
    return best_class, best


def open_set_scores(
    units: np.ndarray, unit_prototypes: np.ndarray, kind: str = "cosine"
) -> np.ndarray:
    """Novelty scores of unit embeddings against unit prototypes: each
    row's max cosine. ``cosine`` is the only ``kind``."""
    if kind != "cosine":
        raise ValueError(f"open_set_scores: unknown score kind {kind!r}")
    return (units @ unit_prototypes.T).max(axis=1)


def closed_set_metrics(
    preds: np.ndarray,
    labels: np.ndarray,
    partition: np.ndarray,
    num_classes: int,
) -> EvalReport:
    """Rank-1 plus per-class and macro recall/precision/F1 and group recalls.

    ``partition`` holds each class's group id. Classes absent from the
    test labels are excluded from macro and group averages; their
    per-class entries are NaN. ``group_sizes`` counts the classes each
    group recall averages over, so an empty group reads 0.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError("closed_set_metrics: preds/labels length mismatch")
    if labels.size == 0:
        raise ValueError("closed_set_metrics: empty test set")
    present = np.bincount(labels, minlength=num_classes).astype(np.float64)
    predicted = np.bincount(preds, minlength=num_classes).astype(np.float64)
    correct = np.bincount(labels[preds == labels], minlength=num_classes).astype(np.float64)

    with np.errstate(invalid="ignore", divide="ignore"):
        recall = np.where(present > 0, correct / np.maximum(present, 1), np.nan)
        precision = np.where(predicted > 0, correct / np.maximum(predicted, 1), 0.0)
        precision = np.where(present > 0, precision, np.nan)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / np.where(denom > 0, denom, 1), 0.0)
        f1 = np.where(present > 0, f1, np.nan)

    has_test = present > 0
    group_recall: dict[str, float] = {}
    group_sizes: dict[str, int] = {}
    for gid, name in GROUP_NAMES.items():
        members = has_test & (partition == gid)
        group_recall[name] = float(np.mean(recall[members])) if members.any() else float("nan")
        group_sizes[name] = int(np.count_nonzero(members))
    group_recall["overall"] = float(np.nanmean(recall))

    return EvalReport(
        rank1=float(np.mean(preds == labels)),
        per_class_recall=recall,
        per_class_precision=precision,
        per_class_f1=f1,
        macro_recall=float(np.nanmean(recall)),
        macro_precision=float(np.nanmean(precision)),
        macro_f1=float(np.nanmean(f1)),
        group_recall=group_recall,
        group_sizes=group_sizes,
    )


def calibrate_threshold(
    known_val_scores: np.ndarray, target_tpr: float = 0.95
) -> tuple[float, float]:
    """Largest threshold keeping at least ``target_tpr`` of known scores above it.

    Returns ``(threshold, achieved_tpr)``. Requires at least
    ``MIN_CALIBRATION_SCORES`` scores for the requested granularity.
    """
    scores = np.sort(np.asarray(known_val_scores, dtype=np.float64))
    n = scores.size
    if n < MIN_CALIBRATION_SCORES:
        raise ValueError(
            f"calibrate_threshold: need >= {MIN_CALIBRATION_SCORES} scores "
            f"for TPR granularity, have {n}"
        )
    if not 0.0 < target_tpr <= 1.0:
        raise ValueError(f"calibrate_threshold: target_tpr must be in (0, 1], got {target_tpr}")
    keep = int(np.ceil(target_tpr * n))  # samples that must score >= threshold
    tau = float(scores[n - keep])
    achieved = float(np.mean(scores >= tau))
    return tau, achieved


def open_set_eval(
    known_test_scores: np.ndarray, unknown_scores: np.ndarray, tau: float
) -> dict[str, float]:
    """TPR on knowns, TNR on unknowns, and overall accept/reject accuracy."""
    known = np.asarray(known_test_scores, dtype=np.float64)
    unknown = np.asarray(unknown_scores, dtype=np.float64)
    if known.size == 0 or unknown.size == 0:
        raise ValueError("open_set_eval: both score sets must be nonempty")
    tpr = float(np.mean(known >= tau))
    tnr = float(np.mean(unknown < tau))
    acc = float((np.sum(known >= tau) + np.sum(unknown < tau)) / (known.size + unknown.size))
    return {"threshold": tau, "tpr": tpr, "tnr": tnr, "acc": acc}

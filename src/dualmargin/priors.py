"""Per-class statistics: counts, priors, effective numbers, margin adjustments.

Class statistics are computed once from the training labels and are
immutable afterwards, so they are safe to share across threads. The
head/between/tail partition is a plain per-class array of group ids
(``HEAD``, ``BETWEEN``, ``TAIL``), indexed by class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_labels

HEAD = 0
BETWEEN = 1
TAIL = 2
GROUP_NAMES = {HEAD: "head", BETWEEN: "between", TAIL: "tail"}


@dataclass(frozen=True)
class ClassStats:
    """Per-class counts, priors and derived margin adjustments."""

    counts: np.ndarray
    priors: np.ndarray
    effective_numbers: np.ndarray
    effective_priors: np.ndarray
    deltas: np.ndarray
    num_classes: int


def class_counts(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Tally labels into per-class counts."""
    labels = np.asarray(labels, dtype=np.int64)
    check_labels(labels, num_classes, "class_counts")
    return np.bincount(labels, minlength=num_classes).astype(np.int64)


def empirical_priors(counts: np.ndarray) -> np.ndarray:
    """Per-class empirical frequency N_j / N."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empirical_priors: empty training set")
    return counts / total


def effective_numbers(counts: np.ndarray, beta: float) -> np.ndarray:
    """Saturating sample-count proxy (1 - beta^N) / (1 - beta).

    With beta = 0 every non-empty class gets 1; as N grows the value
    approaches 1 / (1 - beta).
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"effective_numbers: beta must be in [0, 1), got {beta}")
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("effective_numbers: negative count")
    return (1.0 - np.power(beta, counts)) / (1.0 - beta)


def effective_priors(priors: np.ndarray, eff_numbers: np.ndarray) -> np.ndarray:
    """Average of the empirical prior and the normalized effective number."""
    priors = np.asarray(priors, dtype=np.float64)
    eff_numbers = np.asarray(eff_numbers, dtype=np.float64)
    if priors.shape != eff_numbers.shape:
        raise ValueError("effective_priors: shape mismatch")
    total = eff_numbers.sum()
    if total <= 0:
        raise ValueError("effective_priors: effective numbers sum to zero")
    return 0.5 * (priors + eff_numbers / total)


def margin_adjustments(priors_like: np.ndarray, base_margin: float) -> np.ndarray:
    """Map priors to per-class margin adjustments in [0, base_margin].

    The log-transformed inverse prior u_j = -log(rho_j) is min-max
    normalized across classes and scaled by the base margin, so the rarest
    class gets the full margin and the most frequent gets 0. When all
    priors tie, every adjustment is 0.

    The paper adds a small epsilon to u_j. There is none here: min-max
    normalization cancels a constant offset, and only strictly positive
    priors reach the log, so it is finite without one. An epsilon would
    only move the float64 rounding, by an ulp.
    """
    priors_like = np.asarray(priors_like, dtype=np.float64)
    if base_margin <= 0:
        raise ValueError(f"margin_adjustments: base margin must be > 0, got {base_margin}")
    if np.any(priors_like <= 0):
        raise ValueError("margin_adjustments: priors must be strictly positive")
    u = -np.log(priors_like)
    lo, hi = u.min(), u.max()
    if hi - lo <= 0:
        return np.zeros_like(u)
    return base_margin * (u - lo) / (hi - lo)


def compute_class_stats(
    labels: np.ndarray,
    num_classes: int,
    base_margin: float,
    beta: float = 0.9,
) -> ClassStats:
    """Full per-class statistics pipeline from raw training labels.

    The margin map is evaluated on the effective priors. Classes with zero
    training samples are maximally tail: they receive the full base margin
    and are excluded from the min-max statistics.
    """
    counts = class_counts(labels, num_classes)
    priors = empirical_priors(counts)
    eff = effective_numbers(counts, beta)
    eff_priors = effective_priors(priors, eff)
    deltas = np.full(num_classes, base_margin, dtype=np.float64)
    seen = counts > 0
    if seen.any():
        deltas[seen] = margin_adjustments(eff_priors[seen], base_margin)
    return ClassStats(
        counts=counts,
        priors=priors,
        effective_numbers=eff,
        effective_priors=eff_priors,
        deltas=deltas,
        num_classes=num_classes,
    )


def partition_classes(counts: np.ndarray, head_threshold: int,
                      tail_threshold: int) -> np.ndarray:
    """Per-class group ids: head (> head_threshold), tail (< tail_threshold) or between."""
    if head_threshold <= 0 or tail_threshold <= 0:
        raise ValueError("partition_classes: thresholds must be positive")
    if tail_threshold >= head_threshold:
        raise ValueError("partition_classes: tail threshold must be below head threshold")
    counts = np.asarray(counts, dtype=np.int64)
    group = np.full(counts.shape, BETWEEN, dtype=np.int64)
    group[counts > head_threshold] = HEAD
    group[counts < tail_threshold] = TAIL
    return group

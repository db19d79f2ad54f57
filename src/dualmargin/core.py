"""Numerically stable vector/matrix primitives shared across the package.

All routines work in double precision and are pure functions of their
inputs, so they can be called from anywhere without synchronization.
"""

from __future__ import annotations

import numpy as np

# Norms at or below this are treated as degenerate (zero) vectors.
NORM_EPS = 1e-12


def rows_normalize(mat: np.ndarray, eps: float = NORM_EPS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise L2 normalization with a zero-guard.

    Rows run along the last axis, so a stack (P, rows, d) is normalized
    row by row too. Returns ``(units, norms, degenerate_mask)``; the norms
    and the mask have the input's shape without its last axis. A row whose
    norm is at or below ``eps`` is degenerate: its unit row falls back to
    the first basis vector e1, so downstream code never sees NaNs from it.
    Non-finite entries are not checked here: callers check at their own
    boundaries (encoder input, loss logits), and a NaN or inf row yields
    NaN units there.
    """
    mat = np.asarray(mat, dtype=np.float64)
    norms = np.sqrt((mat * mat).sum(axis=-1))
    degenerate = norms <= eps
    safe = np.where(degenerate, 1.0, norms)
    units = mat / safe[..., None]
    if degenerate.any():
        units[degenerate] = 0.0
        units[degenerate, 0] = 1.0
    return units, norms, degenerate


def check_labels(labels: np.ndarray, num_classes: int, caller: str) -> None:
    """Raise a ``ValueError`` naming the first label outside [0, num_classes)."""
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise ValueError(f"{caller}: label outside [0, {num_classes}): {int(bad)}")


def stable_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax; invariant to adding a constant to all logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("stable_softmax: input contains non-finite entries")
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def cosine_logits(x_unit: np.ndarray, prototypes_unit: np.ndarray) -> np.ndarray:
    """Cosine similarities between unit embeddings and unit prototype rows.

    ``x_unit`` may be a single vector (d,) or a batch (n, d);
    ``prototypes_unit`` is (c, d). Output values lie in [-1, 1] up to
    roundoff.
    """
    x_unit = np.asarray(x_unit, dtype=np.float64)
    prototypes_unit = np.asarray(prototypes_unit, dtype=np.float64)
    if x_unit.shape[-1] != prototypes_unit.shape[-1]:
        raise ValueError(
            f"cosine_logits: dimension mismatch {x_unit.shape[-1]} vs {prototypes_unit.shape[-1]}"
        )
    return x_unit @ prototypes_unit.T


def softplus(x: np.ndarray | float) -> np.ndarray | float:
    """log(1 + e^x), computed without overflow for large x."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Logistic function, stable for large |x|.

    A Python float or 0-d input takes a scalar branch and returns a float,
    bit-equal to the array branch at the same value.
    """
    if np.ndim(x) == 0:
        x = float(x)
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out

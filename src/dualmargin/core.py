"""Numerically stable primitives shared across the package: the error type
of a numerical failure, training's floating-point state, row norms and row
normalization, label range checks, the softmax, the scalar softplus and
logistic functions of the loss's margin exponent, and work-array carving.

The array routines compute in their input's floating dtype: float32 in
the training step, float64 everywhere else. All are pure functions of their
inputs and of the buffers the caller passes, so they can be called from
anywhere without synchronization.
"""

from __future__ import annotations

import math

import numpy as np

# Norms at or below this are treated as degenerate (zero) vectors.
NORM_EPS = 1e-12


class NumericalError(ValueError):
    """A non-finite value where a finite one is needed; the CLI's exit 3."""


# Training's ``np.errstate``: overflow, invalid values and x / 0 raise where they happen.
FP_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}

# Work arrays carved out of one buffer start at multiples of this many bytes.
ALIGN = 64


def _extents(specs) -> list[tuple[int, int]]:
    """The byte range of each ``(shape, dtype)`` in ``specs``, laid out in
    order, each starting at a multiple of ``ALIGN``."""
    extents, end = [], 0
    for shape, dtype in specs:
        start = -(-end // ALIGN) * ALIGN
        end = start + math.prod(shape) * np.dtype(dtype).itemsize
        extents.append((start, end))
    return extents


def carved_bytes(specs) -> int:
    """The bytes ``carve`` needs for ``specs``."""
    return max((end for _, end in _extents(specs)), default=0)


def carve(buffer: np.ndarray | None, specs) -> list[np.ndarray]:
    """An array for each ``(shape, dtype)`` in ``specs``: C-contiguous views
    of consecutive parts of the byte ``buffer`` (at least ``carved_bytes``
    long), or fresh arrays where ``buffer`` is None. A view's contents are
    whatever the buffer held."""
    if buffer is None:
        return [np.empty(shape, dtype) for shape, dtype in specs]
    return [buffer[start:end].view(dtype).reshape(shape)
            for (start, end), (shape, dtype) in zip(_extents(specs), specs)]


def row_norms(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """L2 norms along the last axis; bit-equal to ``np.linalg.norm(x, axis=-1)``
    for real input, which evaluates the same expression. The squares are
    written into ``scratch``, shaped like ``x``, where one is given."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=scratch), axis=-1))


def rows_normalize(mat: np.ndarray,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise L2 normalization with a zero-guard.

    Rows run along the last axis, so a stack (P, rows, d) is normalized
    row by row too. Returns ``(units, norms, degenerate_mask)``; the norms
    and the mask have the input's shape without its last axis. A row whose
    norm is at or below ``NORM_EPS`` is degenerate: its unit row falls back
    to the first basis vector e1, so downstream code never sees NaNs from it.
    Non-finite entries are not checked here: a NaN or inf row yields NaN
    units, which the loss's logit check reports. ``out``, shaped like
    ``mat`` and apart from it, holds the squares and then the units, so no
    array of ``mat``'s size is made.
    """
    mat = np.asarray(mat)
    norms = row_norms(mat, out)
    degenerate = norms <= NORM_EPS
    if not np.logical_or.reduce(degenerate, axis=None):
        return np.divide(mat, norms[..., None], out=out), norms, degenerate
    units = np.divide(mat, np.where(degenerate, 1.0, norms)[..., None], out=out)
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


def softplus(x: np.ndarray | float) -> np.ndarray | float:
    """log(1 + e^x), computed without overflow for large x."""
    return np.logaddexp(0.0, x)


def sigmoid(x: float) -> float:
    """Logistic function of a scalar, stable for large |x|."""
    x = float(x)
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = np.exp(x)
    return float(ex / (1.0 + ex))

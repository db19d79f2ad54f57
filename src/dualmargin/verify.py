"""Numerical verification: finite-difference oracle and the two gradient claims.

``central_difference`` builds its 2k perturbed points, for a k-element
input, once as a (2k, k) stack. It calls ``f`` once per point and takes a
scalar back, or, with ``stacked=True``, hands ``f`` the whole stack and
takes 2k values back. ``dualmargin verify`` uses the stacked form: its
``f`` evaluates the points as one stacked loss forward per gamma value.

The probes work in normalized space (partials with respect to unit
prototype rows, treating unit embeddings as fixed), matching the sign
convention (1 - p) * x for target-class partials and p * x for
non-target partials. This is deliberately separate from the trainer's
raw-space gradients.

* Alignment: the summed target-class partials approach N_c (1 - p_bar)
  times the class embedding mean as the per-class probability spread
  vanishes; the triangle-inequality bound N_c * max |p_bar - p_i| holds
  exactly.
* Deviation bound: for a sample whose own class wins the adjusted
  softmax, the partial norm on another class c is at most
  exp(s * (m_y - m_c)).

Both probes also take a stack of P probes along a leading axis and
return one result whose fields have length P. An all-zero row is
padding: an all-zero prototype row is a class that does not exist, and
an all-zero embedding row (alignment) a sample that does not exist. So
probes of different shapes share one stack, zero-padded to the largest.
``rows_normalize`` never returns a zero row, so a real row is never
taken for padding. An unstacked call is the P = 1 case and returns
Python scalars.

``dualmargin verify`` runs thousands of probes on arrays of at most
8 x 7, where the cost is NumPy call overhead. So it makes one draw per
field per claim, masked to each probe's shape, and one probe call per
claim and scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NumericalError, row_norms, stable_softmax
from .loss import MarginConfig, power_scaled_margins


def central_difference(
    f: Callable[[np.ndarray], float | np.ndarray], x: np.ndarray, h: float, *,
    stacked: bool = False,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function.

    The 2k points, for the k elements of ``x``, are built once as the rows
    of a (2k, k) stack: row i is x with h added to element i, and row k + i
    x with h subtracted from it. By default ``f`` is called once per row,
    on an array shaped like ``x``, and returns a scalar. With ``stacked``,
    ``f`` gets the whole stack and returns its 2k values.
    """
    x = np.asarray(x, dtype=np.float64)
    k = x.size
    points = np.tile(x.reshape(1, k), (2 * k, 1))
    coords = np.arange(k)
    points[coords, coords] += h
    points[coords + k, coords] -= h
    if stacked:
        values = np.asarray(f(points), dtype=np.float64)
        if values.shape != (2 * k,):
            raise ValueError(f"central_difference: a stacked f returned shape {values.shape} "
                             f"for {2 * k} points")
    else:
        values = np.array([f(point.reshape(x.shape)) for point in points], dtype=np.float64)
    finite = np.isfinite(values[:k]) & np.isfinite(values[k:])
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise NumericalError(f"central_difference: non-finite function value at coordinate {i}")
    return ((values[:k] - values[k:]) / (2.0 * h)).reshape(x.shape)


@dataclass
class AlignmentProbe:
    class_id: int | np.ndarray
    class_mean: np.ndarray
    mean_prob: float | np.ndarray
    prob_std: float | np.ndarray
    alpha: float | np.ndarray
    residual: float | np.ndarray
    bound: float | np.ndarray


@dataclass
class BoundProbe:
    tail_class: int | np.ndarray
    grad_norm: float | np.ndarray
    bound: float | np.ndarray
    condition_met: bool | np.ndarray


def _first(probe):
    """The single probe of a length-1 stack, with Python scalar fields."""
    fields = {name: stack[0] for name, stack in vars(probe).items()}
    return type(probe)(**{name: value.item() if isinstance(value, np.generic) else value
                          for name, value in fields.items()})


# The logit of a padded class: finite, because ``stable_softmax`` rejects
# non-finite input, and far enough below any real logit that its exp is 0.
PAD_LOGIT = -1e300


def _normalized_probs(
    units: np.ndarray,
    class_ids: np.ndarray,
    unit_prototypes: np.ndarray,
    scaled_deltas: np.ndarray,
    cfg: MarginConfig,
) -> np.ndarray:
    """Adjusted softmax of a stack: units (P, n, d) all of class class_ids (P,),
    prototypes (P, c, d), scaled deltas (P, c); returns (P, n, c). A class
    whose prototype row is all zero is padding and gets probability 0."""
    logits = units @ unit_prototypes.transpose(0, 2, 1)
    num_classes = unit_prototypes.shape[1]
    margins = scaled_deltas + cfg.m * (np.arange(num_classes) == class_ids[:, None])
    logits = cfg.s * (logits - margins[:, None, :])
    np.copyto(logits, PAD_LOGIT, where=~unit_prototypes.any(axis=-1)[:, None, :])
    return stable_softmax(logits, axis=-1)


def alignment_probe(
    units: np.ndarray,
    class_id: int | np.ndarray,
    unit_prototypes: np.ndarray,
    deltas: np.ndarray,
    cfg: MarginConfig,
) -> AlignmentProbe:
    """Probe the mean-seeking behavior of a class prototype.

    ``units`` (n, d) must all belong to ``class_id``; ``unit_prototypes`` is
    (c, d) and ``deltas`` (c,). With a leading stack axis, ``units`` is
    (P, n, d), ``class_id`` an int or (P,), ``unit_prototypes`` (P, c, d)
    and ``deltas`` (P, c), and every field of the result has length P.
    All-zero rows of ``units`` and ``unit_prototypes`` are padding: N, the
    means, the std, the partial sum and the max run over the real rows,
    and a padded class takes no probability. Partials follow the positive
    convention (1 - p_{i,c}) x_i.
    """
    units, unit_prototypes, deltas = (
        np.asarray(a, dtype=np.float64) for a in (units, unit_prototypes, deltas))
    stacked = units.ndim == 3
    if not stacked:
        units, unit_prototypes, deltas = units[None], unit_prototypes[None], deltas[None]
    num_probes = units.shape[0]
    real = units.any(axis=-1)
    n = real.sum(axis=1)
    if (n < 2).any():
        raise ValueError("alignment_probe: need at least 2 samples (std uses N-1)")
    class_ids = np.full(num_probes, class_id, dtype=np.int64)
    scaled = power_scaled_margins(deltas, cfg.m, cfg.gamma, cfg.eq5_sign)
    probs = _normalized_probs(units, class_ids, unit_prototypes, scaled, cfg)
    p = probs[np.arange(num_probes), :, class_ids]
    p_bar = (p * real).sum(axis=1) / n
    mu = units.sum(axis=1) / n[:, None]
    alpha = n * (1.0 - p_bar)
    spread = np.abs(p - p_bar[:, None]) * real
    partial_sum = ((1.0 - p)[:, :, None] * units).sum(axis=1)
    probe = AlignmentProbe(
        class_id=class_ids, class_mean=mu, mean_prob=p_bar,
        prob_std=np.sqrt((spread * spread).sum(axis=1) / (n - 1)), alpha=alpha,
        residual=row_norms(partial_sum - alpha[:, None] * mu),
        bound=n * spread.max(axis=1),
    )
    return probe if stacked else _first(probe)


def bound_probe(
    unit: np.ndarray,
    label: int | np.ndarray,
    tail_class: int | np.ndarray,
    unit_prototypes: np.ndarray,
    deltas: np.ndarray,
    cfg: MarginConfig,
) -> BoundProbe:
    """Probe the exponential bound on a non-target prototype partial.

    ``unit`` is (d,), ``unit_prototypes`` (c, d) and ``deltas`` (c,). With a
    leading stack axis, ``unit`` is (P, d), ``label`` and ``tail_class``
    ints or (P,), ``unit_prototypes`` (P, c, d) and ``deltas`` (P, c), and
    every field of the result has length P. An all-zero prototype row is
    a padded class and takes no probability; ``tail_class`` must be real.

    In normalized space the partial on class c is p_{i,c} * x_hat_i with
    unit norm, so the gradient norm is just p_{i,c}. The bound includes
    the logit scale: exp(s * (m_y - m_c)).
    """
    unit, unit_prototypes, deltas = (
        np.asarray(a, dtype=np.float64) for a in (unit, unit_prototypes, deltas))
    stacked = unit.ndim == 2
    if not stacked:
        unit, unit_prototypes, deltas = unit[None], unit_prototypes[None], deltas[None]
    num_probes = unit.shape[0]
    labels = np.full(num_probes, label, dtype=np.int64)
    tails = np.full(num_probes, tail_class, dtype=np.int64)
    if (tails == labels).any():
        raise ValueError("bound_probe: tail class must differ from the sample label")
    scaled = power_scaled_margins(deltas, cfg.m, cfg.gamma, cfg.eq5_sign)
    probs = _normalized_probs(unit[:, None, :], labels, unit_prototypes, scaled, cfg)[:, 0]
    rows = np.arange(num_probes)
    m_y = cfg.m + scaled[rows, labels]
    m_c = scaled[rows, tails]
    probe = BoundProbe(
        tail_class=tails,
        grad_norm=probs[rows, tails],
        bound=np.exp(cfg.s * (m_y - m_c)),
        condition_met=np.argmax(probs, axis=1) == labels,
    )
    return probe if stacked else _first(probe)

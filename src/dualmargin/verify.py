"""Numerical verification: finite-difference oracle and the two gradient claims.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import stable_softmax
from .loss import MarginConfig, _margin_matrix, power_scaled_margins


def central_difference(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"central_difference: non-finite function value at coordinate {i}")
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad


@dataclass
class AlignmentProbe:
    class_id: int
    class_mean: np.ndarray
    mean_prob: float
    prob_std: float
    alpha: float
    residual: float
    bound: float


@dataclass
class BoundProbe:
    sample: int
    tail_class: int
    grad_norm: float
    bound: float
    condition_met: bool


def _normalized_probs(
    units: np.ndarray,
    labels: np.ndarray,
    unit_prototypes: np.ndarray,
    scaled_deltas: np.ndarray,
    cfg: MarginConfig,
) -> np.ndarray:
    logits = units @ unit_prototypes.T
    mm = _margin_matrix(labels, unit_prototypes.shape[0], scaled_deltas, cfg.m)
    return stable_softmax(cfg.s * (logits - mm), axis=1)


def alignment_probe(
    units: np.ndarray,
    class_id: int,
    unit_prototypes: np.ndarray,
    deltas: np.ndarray,
    cfg: MarginConfig,
) -> AlignmentProbe:
    """Probe the mean-seeking behavior of a class prototype.

    ``units`` must all belong to ``class_id``. Partials follow the
    positive convention (1 - p_{i,c}) x_i.
    """
    units = np.asarray(units, dtype=np.float64)
    n = units.shape[0]
    if n < 2:
        raise ValueError("alignment_probe: need at least 2 samples (std uses N-1)")
    labels = np.full(n, class_id, dtype=np.int64)
    scaled = power_scaled_margins(deltas, cfg.m, cfg.gamma, cfg.eq5_sign)
    probs = _normalized_probs(units, labels, unit_prototypes, scaled, cfg)
    p = probs[:, class_id]
    p_bar = float(p.mean())
    mu = units.mean(axis=0)
    alpha = n * (1.0 - p_bar)
    partial_sum = ((1.0 - p)[:, None] * units).sum(axis=0)
    residual = float(np.linalg.norm(partial_sum - alpha * mu))
    bound = float(n * np.max(np.abs(p_bar - p)))
    return AlignmentProbe(
        class_id=class_id, class_mean=mu, mean_prob=p_bar,
        prob_std=float(np.std(p, ddof=1)), alpha=alpha,
        residual=residual, bound=bound,
    )


def bound_probe(
    unit: np.ndarray,
    label: int,
    tail_class: int,
    unit_prototypes: np.ndarray,
    deltas: np.ndarray,
    cfg: MarginConfig,
    sample_index: int = 0,
) -> BoundProbe:
    """Probe the exponential bound on a non-target prototype partial.

    In normalized space the partial on class c is p_{i,c} * x_hat_i with
    unit norm, so the gradient norm is just p_{i,c}. The bound includes
    the logit scale: exp(s * (m_y - m_c)).
    """
    if tail_class == label:
        raise ValueError("bound_probe: tail class must differ from the sample label")
    unit = np.asarray(unit, dtype=np.float64)
    scaled = power_scaled_margins(deltas, cfg.m, cfg.gamma, cfg.eq5_sign)
    probs = _normalized_probs(
        unit[None, :], np.asarray([label]), unit_prototypes, scaled, cfg
    )[0]
    m_y = cfg.m + scaled[label]
    m_c = scaled[tail_class]
    return BoundProbe(
        sample=sample_index,
        tail_class=tail_class,
        grad_norm=float(probs[tail_class]),
        bound=float(np.exp(cfg.s * (m_y - m_c))),
        condition_met=bool(np.argmax(probs) == label),
    )

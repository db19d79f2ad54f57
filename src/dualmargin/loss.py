"""Dual-margin penalization loss: forward pass and analytic backward pass.

The loss applies a target margin ``m + scaled_delta[y]`` and non-target
margins ``scaled_delta[k]`` inside a scaled softmax over cosine logits.
``scaled_delta`` reshapes the prior-derived per-class adjustments through
a learnable exponent, pulled back toward the raw adjustments by an L2
regularizer.

Three modes are supported:

* ``dual_margin`` -- the full loss on cosine logits.
* ``am_softmax``  -- scaled deltas forced to zero (constant-margin form).
* ``ce``          -- plain softmax cross-entropy on raw dot-product
  logits with s = 1 and no margin.

Gradients are returned with respect to the *raw* (pre-normalization)
embeddings and prototypes plus the margin-scaling scalar, so the trainer
can update raw parameters directly. Forward and backward are pure
functions of their inputs.

Once per call, the forward pass computes the gamma terms (scaled margins,
their gamma derivative, the regularizer value and its gamma gradient) from
one power of |delta|/m, and one max-shifted exp whose row sums give both
the log-sum-exp and the softmax. The backward pass reads the gamma terms
from ``LossContext``. The only finiteness check is on the adjusted logits,
which a NaN or inf embedding or prototype row reaches; it names the first
bad sample. The trainer keeps gamma as the last element of its flat
parameter buffer and passes it in through ``MarginConfig.gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import rows_normalize, sigmoid, softplus

MODES = ("dual_margin", "am_softmax", "ce")
SIGN_CHOICES = ("literal", "magnitude")

DIVERGENCE_LIMIT = 1e6


@dataclass
class MarginConfig:
    """Hyperparameters of the margin loss.

    ``eq5_sign`` selects the sign of the power-scaled adjustments:
    ``literal`` yields non-positive values, ``magnitude`` keeps them as
    shrunken positive margins.
    """

    s: float = 32.0
    m: float = 0.15
    beta: float = 0.9
    epsilon: float = 1e-6
    lam: float = 5.0
    gamma: float = 0.0
    mode: str = "dual_margin"
    eq5_sign: str = "literal"
    use_effective_priors: bool = True

    def __post_init__(self) -> None:
        if self.s <= 0:
            raise ValueError(f"MarginConfig: s must be > 0, got {self.s}")
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"MarginConfig: m must be in (0, 1), got {self.m}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"MarginConfig: beta must be in [0, 1), got {self.beta}")
        if self.epsilon <= 0:
            raise ValueError(f"MarginConfig: epsilon must be > 0, got {self.epsilon}")
        if self.lam < 0:
            raise ValueError(f"MarginConfig: lambda must be >= 0, got {self.lam}")
        if self.mode not in MODES:
            raise ValueError(f"MarginConfig: mode must be one of {MODES}, got {self.mode!r}")
        if self.eq5_sign not in SIGN_CHOICES:
            raise ValueError(f"MarginConfig: eq5_sign must be one of {SIGN_CHOICES}")


@dataclass
class LossOutput:
    total: float
    per_sample: np.ndarray
    probs: np.ndarray
    reg_value: float
    grad_embeddings: np.ndarray | None = None
    grad_prototypes: np.ndarray | None = None
    grad_gamma: float | None = None


@dataclass
class LossContext:
    """Everything the backward pass needs from the forward pass."""

    cfg: MarginConfig
    labels: np.ndarray
    probs: np.ndarray
    # Margin-mode fields (None in ce mode).
    units: np.ndarray | None = None
    norms: np.ndarray | None = None
    degenerate: np.ndarray | None = None
    proto_units: np.ndarray | None = None
    proto_norms: np.ndarray | None = None
    proto_degenerate: np.ndarray | None = None
    deltas: np.ndarray | None = None
    scaled_deltas: np.ndarray | None = None
    # Gamma terms (dual_margin mode only): d(scaled_delta)/d(gamma) and the
    # regularizer's gamma gradient, computed once by the forward pass.
    dscaled_dgamma: np.ndarray | None = None
    dreg_dgamma: float | None = None
    # ce-mode fields.
    raw_embeddings: np.ndarray | None = None
    raw_prototypes: np.ndarray | None = None


@dataclass
class LossGrads:
    embeddings: np.ndarray
    prototypes: np.ndarray
    gamma: float


def zeta(gamma: float) -> float:
    """Scaling exponent 1 + softplus(gamma); strictly greater than 1."""
    return 1.0 + float(softplus(gamma))


def _power_scaled(deltas: np.ndarray, m: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """m * (|delta|/m)^zeta, unsigned, and the ratio |delta|/m it is a power of."""
    ratio = np.abs(deltas) / m
    return m * np.power(ratio, zeta(gamma)), ratio


def _gamma_terms(
    deltas: np.ndarray, m: float, gamma: float, sign: str
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled margins and their gamma derivative, sharing one power of |delta|/m.

    d/dgamma of m * r^zeta is m * r^zeta * log(r) * sigmoid(gamma); it is
    zero where delta is zero.
    """
    scaled, ratio = _power_scaled(deltas, m, gamma)
    log_ratio = np.log(ratio, out=np.zeros_like(ratio), where=ratio > 0)
    grad = scaled * log_ratio * sigmoid(gamma)
    if sign == "literal":
        return -scaled, -grad
    return scaled, grad


def _regularizer(deltas: np.ndarray, scaled_deltas: np.ndarray,
                 dscaled_dgamma: np.ndarray) -> tuple[float, float]:
    gap = deltas - scaled_deltas
    return float((gap * gap).sum()), float((-2.0 * gap * dscaled_dgamma).sum())


def power_scaled_margins(
    deltas: np.ndarray, m: float, gamma: float, sign: str = "literal"
) -> np.ndarray:
    """Reshape adjustments by the learnable exponent: +/- m * (|delta|/m)^zeta."""
    if m <= 0:
        raise ValueError(f"power_scaled_margins: m must be > 0, got {m}")
    if sign not in SIGN_CHOICES:
        raise ValueError(f"power_scaled_margins: sign must be one of {SIGN_CHOICES}")
    scaled, _ = _power_scaled(np.asarray(deltas, dtype=np.float64), m, gamma)
    return -scaled if sign == "literal" else scaled


def power_scaled_margins_grad_gamma(
    deltas: np.ndarray, m: float, gamma: float, sign: str = "literal"
) -> np.ndarray:
    """d(scaled_delta)/d(gamma), elementwise; zero where delta is zero."""
    return _gamma_terms(np.asarray(deltas, dtype=np.float64), m, gamma, sign)[1]


def margin_regularizer(
    deltas: np.ndarray,
    scaled_deltas: np.ndarray,
    dscaled_dgamma: np.ndarray,
) -> tuple[float, float]:
    """Sum of squared gaps between raw and scaled adjustments, and its gamma gradient.

    ``dscaled_dgamma`` is ``power_scaled_margins_grad_gamma`` at the gamma
    that produced ``scaled_deltas``.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    scaled_deltas = np.asarray(scaled_deltas, dtype=np.float64)
    if not deltas.shape == scaled_deltas.shape == np.shape(dscaled_dgamma):
        raise ValueError("margin_regularizer: shape mismatch")
    return _regularizer(deltas, scaled_deltas, dscaled_dgamma)


def _margin_matrix(labels: np.ndarray, num_classes: int, scaled_deltas: np.ndarray, m: float) -> np.ndarray:
    n = labels.shape[0]
    mm = np.empty((n, num_classes))
    mm[...] = scaled_deltas
    mm[np.arange(n), labels] += m
    return mm


def margin_loss_forward(
    embeddings: np.ndarray,
    labels: np.ndarray,
    prototypes: np.ndarray,
    deltas: np.ndarray | None,
    cfg: MarginConfig,
) -> tuple[LossOutput, LossContext]:
    """Forward pass on raw embeddings (n, d) and raw prototypes (c, d).

    ``deltas`` are the per-class prior-derived adjustments; they are
    ignored in ``am_softmax`` and ``ce`` modes.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    prototypes = np.asarray(prototypes, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = embeddings.shape[0]
    c = prototypes.shape[0]
    if labels.shape[0] != n:
        raise ValueError("margin_loss_forward: labels/embeddings length mismatch")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"margin_loss_forward: label outside [0, {c})")

    if cfg.mode == "ce":
        adjusted = embeddings @ prototypes.T  # raw dot logits, s = 1, no margin
        ctx = LossContext(
            cfg=cfg, labels=labels, probs=np.empty(0),
            raw_embeddings=embeddings, raw_prototypes=prototypes,
        )
        reg_value = 0.0
    else:
        units, norms, degenerate = rows_normalize(embeddings)
        proto_units, proto_norms, proto_degenerate = rows_normalize(prototypes)
        logits = units @ proto_units.T
        if cfg.mode == "am_softmax":
            scaled = np.zeros(c, dtype=np.float64)
            used_deltas = np.zeros(c, dtype=np.float64)
            reg_value, dscaled, dreg = 0.0, None, None
        else:
            if deltas is None:
                raise ValueError("margin_loss_forward: dual_margin mode requires deltas")
            used_deltas = np.asarray(deltas, dtype=np.float64)
            scaled, dscaled = _gamma_terms(used_deltas, cfg.m, cfg.gamma, cfg.eq5_sign)
            reg_value, dreg = _regularizer(used_deltas, scaled, dscaled)
        adjusted = logits - _margin_matrix(labels, c, scaled, cfg.m)
        adjusted *= cfg.s
        ctx = LossContext(
            cfg=cfg, labels=labels, probs=np.empty(0),
            units=units, norms=norms, degenerate=degenerate,
            proto_units=proto_units, proto_norms=proto_norms,
            proto_degenerate=proto_degenerate,
            deltas=used_deltas, scaled_deltas=scaled,
            dscaled_dgamma=dscaled, dreg_dgamma=dreg,
        )

    # The one finiteness check of the loss: a NaN or inf embedding or
    # prototype row shows up here as a non-finite logit row.
    if not np.isfinite(adjusted).all():
        bad = ~np.isfinite(adjusted).all(axis=1)
        raise ValueError(f"margin_loss_forward: non-finite logits at sample {int(np.flatnonzero(bad)[0])}")

    # Max-shifted exp and its row sums, shared by log-sum-exp and softmax.
    peak = adjusted.max(axis=1, keepdims=True)
    probs = np.exp(adjusted - peak)
    sums = probs.sum(axis=1, keepdims=True)
    per_sample = (np.log(sums) + peak)[:, 0] - adjusted[np.arange(n), labels]
    probs /= sums
    ctx.probs = probs
    total = float(per_sample.sum() / n + cfg.lam * reg_value)
    out = LossOutput(total=total, per_sample=per_sample, probs=probs, reg_value=reg_value)
    return out, ctx


def margin_loss_backward(ctx: LossContext) -> LossGrads:
    """Gradients of the total loss wrt raw embeddings, raw prototypes and gamma.

    The softmax gradient p - onehot is chained through the scale factor,
    the cosine logits, and the L2 normalization of both embeddings and
    prototypes. The gamma gradient flows through the scaled adjustments
    in both the data term and the regularizer. Rows that hit the
    zero-norm guard have no dependence on their raw vector, so their
    gradient is zero.
    """
    cfg = ctx.cfg
    labels = ctx.labels
    probs = ctx.probs
    n = probs.shape[0]
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    g /= n  # batch-mean reduction

    if cfg.mode == "ce":
        grad_x = g @ ctx.raw_prototypes
        grad_w = g.T @ ctx.raw_embeddings
        return LossGrads(embeddings=grad_x, prototypes=grad_w, gamma=0.0)

    dz = cfg.s * g
    grad_units = dz @ ctx.proto_units
    grad_proto_units = dz.T @ ctx.units
    grad_x = _chain_through_normalization(grad_units, ctx.units, ctx.norms, ctx.degenerate)
    grad_w = _chain_through_normalization(
        grad_proto_units, ctx.proto_units, ctx.proto_norms, ctx.proto_degenerate
    )

    grad_gamma = 0.0
    if cfg.mode == "dual_margin":
        # Data term: every margin-matrix column j is scaled_delta[j] (+m on
        # the target), so dL/d(scaled_delta[j]) = -s * column-sum of g.
        dscaled_data = -cfg.s * g.sum(axis=0)
        grad_gamma = float((dscaled_data * ctx.dscaled_dgamma).sum() + cfg.lam * ctx.dreg_dgamma)

    return LossGrads(embeddings=grad_x, prototypes=grad_w, gamma=grad_gamma)


def _chain_through_normalization(
    grad_units: np.ndarray,
    units: np.ndarray,
    norms: np.ndarray,
    degenerate: np.ndarray,
) -> np.ndarray:
    """Pull gradients wrt unit rows back to raw rows through x/||x||."""
    radial = (grad_units * units).sum(axis=1, keepdims=True)
    grad_raw = grad_units - radial * units
    grad_raw /= np.where(degenerate, 1.0, norms)[:, None]
    if degenerate.any():
        grad_raw[degenerate] = 0.0
    return grad_raw


def margin_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    prototypes: np.ndarray,
    deltas: np.ndarray | None,
    cfg: MarginConfig,
) -> LossOutput:
    """Forward and backward in one call; grads filled in the output."""
    out, ctx = margin_loss_forward(embeddings, labels, prototypes, deltas, cfg)
    grads = margin_loss_backward(ctx)
    out.grad_embeddings = grads.embeddings
    out.grad_prototypes = grads.prototypes
    out.grad_gamma = grads.gamma
    return out

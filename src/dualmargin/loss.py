"""Dual-margin penalization loss: forward pass and analytic backward pass.

The loss applies a target margin ``m + scaled_delta[y]`` and non-target
margins ``scaled_delta[k]`` inside a scaled softmax over cosine logits.
``scaled_delta`` reshapes the prior-derived per-class adjustments through
a learnable exponent, pulled back toward the raw adjustments by an L2
regularizer.

Three modes are supported. The mode is plan data: ``loss_plan`` is the
only code that reads it, and one kernel runs the same lines for all three.

* ``dual_margin`` -- the full loss on cosine logits.
* ``am_softmax``  -- non-target margins fixed at zero (constant-margin form).
* ``ce``          -- plain softmax cross-entropy on raw dot-product
  logits (rows not normalized) with s = 1 and no margin.

Gradients are returned with respect to the *raw* (pre-normalization)
embeddings and prototypes plus the margin-scaling scalar, so the trainer
can update raw parameters directly.

The adjustments come from the training priors alone, so within a run only
gamma and the batch change. Computed once per run, into a ``LossPlan``:
the adjustments, their ratio |delta|/m and its log (zero where delta is
zero), where each batch row's logits start in a flat view, the buffer
that receives the prototype gradient (in training, a view of the flat
gradient buffer), and the kernel's work arrays (in training, views of the
trainer's work buffer), which each call writes over. The plan's arrays
take the prototype gradient's dtype, the step's: float32 in training,
float64 through the public entry points, so every kernel line runs in one
dtype. Computed once per step: the gamma terms (the scaled margins
``m * ratio**zeta``, their gamma derivative, the regularizer and its gamma
gradient); the embedding and prototype rows as one stack, normalized in a
cosine mode; the adjusted logits, formed in the logits' buffer as the
logits minus the margins by broadcast, with each target entry rewritten as
``logits[i, y] - (margin[y] + m)``; and one max-shifted exp whose row sums
give both the log-sum-exp and the softmax. The forward pass leaves the
softmax, written over the adjusted logits, in its ``LossContext``; the
fused ``margin_loss`` turns it into its gradient in place, and chains it
back through the stack (and its normalization, in a cosine mode). Each
pass hands its kernels to ``parallel`` (``halves`` for the logits and the
softmax, ``pair`` for the two gradient matmuls), which, given the training
run's helper thread (``parallel.Helper``), computes a large batch as two
parts at once, with the same bits on any CPU count.

``train`` builds the plan once and passes it to ``margin_loss`` in place of
the adjustments; its training labels were range-checked once, by the class
statistics. ``margin_loss`` called with adjustments and
``margin_loss_forward`` check their inputs and build a plan per call, then
run the same kernel.
The kernel's only finiteness check is on the adjusted logits, which a NaN
or inf embedding or prototype row reaches; it names the first bad sample.

``margin_loss_forward`` also evaluates a stack of P parameter points in one
call: embeddings (P, n, d) and prototypes (P, c, d) along a leading stack
axis, sharing one labels array (n,), one set of adjustments and one config,
gamma included. The same kernel lines run on the stack, and each point's
``total`` and ``per_sample`` are bit-equal to its own unstacked call; the
gradient check of ``dualmargin verify`` evaluates its perturbed points this
way. An unstacked call returns ``total`` as a Python float, a stacked one
as an array (P,) with ``per_sample`` (P, n). The backward pass runs only
inside ``margin_loss``, on an unstacked batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (NumericalError, carve, carved_bytes, check_labels, rows_normalize, sigmoid,
                   softplus)
from .parallel import Helper, halves, pair

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

    def __post_init__(self) -> None:
        # Each message names the margin.* config key at fault.
        if self.s <= 0:
            raise ValueError(f"margin.s must be > 0, got {self.s}")
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"margin.m must be in (0, 1), got {self.m}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"margin.beta must be in [0, 1), got {self.beta}")
        if self.epsilon <= 0:
            raise ValueError(f"margin.epsilon must be > 0, got {self.epsilon}")
        if self.lam < 0:
            raise ValueError(f"margin.lambda must be >= 0, got {self.lam}")
        if self.mode not in MODES:
            raise ValueError(f"margin.mode must be one of {MODES}, got {self.mode!r}")
        if self.eq5_sign not in SIGN_CHOICES:
            raise ValueError(f"margin.eq5_sign must be one of {SIGN_CHOICES}, "
                             f"got {self.eq5_sign!r}")

    @property
    def cosine(self) -> bool:
        """Whether the mode scores cosines; ``ce`` scores raw dot products."""
        return self.mode != "ce"


@dataclass
class LossOutput:
    total: float | np.ndarray  # an array (P,) from a stacked forward
    per_sample: np.ndarray
    # Set by margin_loss; a forward-only call leaves them None.
    grad_embeddings: np.ndarray | None = None
    grad_prototypes: np.ndarray | None = None
    grad_gamma: float | None = None


@dataclass
class LossPlan:
    """The loss's inputs that stay fixed within a run: all but the batch and gamma.

    The mode is held as data: ``cosine`` says whether rows are L2-normalized,
    ``s`` and ``m`` are the scale and target margin applied (1.0 and 0.0 in
    ``ce``), and ``margins`` are the fixed non-target margins (zeros; None
    in ``dual_margin``). ``row_starts`` holds the flat index of each batch
    row's first logit, so that ``row_starts + labels`` indexes the target
    logits of a C-contiguous (batch, classes) array viewed flat; for a
    stacked forward it is (P, batch), over a (P, batch, classes) array.
    ``deltas`` are the raw adjustments, ``ratio`` = |delta|/m and
    ``log_ratio`` = log(ratio), zero where the ratio is (``dual_margin``
    only; None otherwise). Each step computes the scaled adjustments from
    them. ``grad_prototypes`` (classes, dim) receives the prototype gradient;
    the plan's float arrays have its dtype. The work arrays: ``stack``, the
    embedding rows then the prototype rows (once normalized, the chain's
    scratch); ``units``, their unit rows (``stack`` itself in ``ce``);
    ``logits``, then their softmax and gradient; ``per_sample``; ``grad``,
    the gradient wrt the stack.
    """

    row_starts: np.ndarray
    grad_prototypes: np.ndarray
    stack: np.ndarray
    units: np.ndarray
    logits: np.ndarray
    per_sample: np.ndarray
    grad: np.ndarray
    cosine: bool
    s: float
    m: float
    margins: np.ndarray | None = None
    deltas: np.ndarray | None = None
    ratio: np.ndarray | None = None
    log_ratio: np.ndarray | None = None


@dataclass
class LossContext:
    """Everything the backward pass needs from the forward pass."""

    cfg: MarginConfig
    labels: np.ndarray
    plan: LossPlan
    # The embedding rows, then the prototype rows, as one stack: unit rows
    # in a cosine mode (with their norms and zero-norm mask), raw rows in ce.
    units: np.ndarray
    # The softmax of the adjusted logits, in their array; ``margin_loss``'s
    # backward pass turns it into the logit gradient in place.
    probs: np.ndarray
    norms: np.ndarray | None = None
    degenerate: np.ndarray | None = None
    # Gamma terms (dual_margin mode only): d(scaled_delta)/d(gamma) and the
    # regularizer's gamma gradient, computed once by the forward pass.
    dscaled_dgamma: np.ndarray | None = None
    dreg_dgamma: float | None = None


def zeta(gamma: float) -> float:
    """Scaling exponent 1 + softplus(gamma); strictly greater than 1."""
    return 1.0 + float(softplus(gamma))


def _ratio_terms(deltas: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """|delta|/m and its log, zero where delta is zero: the gamma-free part
    of the gamma terms."""
    ratio = np.abs(deltas) / m
    return ratio, np.log(ratio, out=np.zeros_like(ratio), where=ratio > 0)


def _power_scaled(ratio: np.ndarray, m: float, gamma: float, sign: str) -> np.ndarray:
    """+/- m * ratio^zeta. The sign rides on m: (-m) * x is -(m * x) exactly."""
    return (-m if sign == "literal" else m) * np.power(ratio, zeta(gamma))


def _gamma_terms(ratio: np.ndarray, log_ratio: np.ndarray, m: float, gamma: float,
                 sign: str) -> tuple[np.ndarray, np.ndarray]:
    """Scaled margins and their gamma derivative, sharing one power of |delta|/m.

    d/dgamma of m * r^zeta is m * r^zeta * log(r) * sigmoid(gamma); it is
    zero where delta is zero.
    """
    scaled = _power_scaled(ratio, m, gamma, sign)
    return scaled, scaled * log_ratio * sigmoid(gamma)


def _regularizer(deltas: np.ndarray, scaled_deltas: np.ndarray,
                 dscaled_dgamma: np.ndarray) -> tuple[float, float]:
    gap = deltas - scaled_deltas
    return (float(np.add.reduce(gap * gap)),
            float(np.add.reduce(-2.0 * gap * dscaled_dgamma)))


def power_scaled_margins(
    deltas: np.ndarray, m: float, gamma: float, sign: str = "literal"
) -> np.ndarray:
    """Reshape adjustments by the learnable exponent: +/- m * (|delta|/m)^zeta."""
    if m <= 0:
        raise ValueError(f"power_scaled_margins: m must be > 0, got {m}")
    if sign not in SIGN_CHOICES:
        raise ValueError(f"power_scaled_margins: sign must be one of {SIGN_CHOICES}")
    return _power_scaled(np.abs(np.asarray(deltas, dtype=np.float64)) / m, m, gamma, sign)


def _work_specs(cfg: MarginConfig, batch_size: int | tuple[int, int],
                grad_prototypes: np.ndarray) -> list:
    """``carve``'s specs of a plan's stack, logits, per-sample losses, stack
    gradient and (cosine modes) unit rows."""
    *lead, n = np.atleast_1d(batch_size).tolist()
    c, d = grad_prototypes.shape[-2:]
    dtype = grad_prototypes.dtype
    stack = ((*lead, n + c, d), dtype)
    return [stack, ((*lead, n, c), dtype), ((*lead, n), dtype), stack,
            *([stack] if cfg.cosine else [])]


def work_bytes(cfg: MarginConfig, batch_size: int, grad_prototypes: np.ndarray) -> int:
    """The length of the ``work`` buffer ``loss_plan`` takes."""
    return carved_bytes(_work_specs(cfg, batch_size, grad_prototypes))


def loss_plan(deltas: np.ndarray | None, cfg: MarginConfig, batch_size: int | tuple[int, int],
              grad_prototypes: np.ndarray, work: np.ndarray | None = None) -> LossPlan:
    """The per-run plan of ``cfg``'s mode for batches of ``batch_size`` rows,
    writing the prototype gradient into ``grad_prototypes`` (classes, dim).

    It holds for every gamma, so one plan serves a run whose config copy
    changes only ``gamma``. ``deltas`` are read in ``dual_margin`` mode only,
    and need one entry per class. A stacked forward passes its (P, n) shape
    as ``batch_size``. The plan's arrays are cast to the dtype of
    ``grad_prototypes``, in which the step computes. The work arrays are
    views of the byte buffer ``work``, or made here.
    """
    num_classes = grad_prototypes.shape[-2]
    row_starts = np.arange(np.prod(batch_size)).reshape(batch_size) * num_classes
    s, m = (cfg.s, cfg.m) if cfg.cosine else (1.0, 0.0)
    dtype = grad_prototypes.dtype
    stack, logits, per_sample, grad, *units = carve(
        work, _work_specs(cfg, batch_size, grad_prototypes))
    arrays = dict(row_starts=row_starts, grad_prototypes=grad_prototypes, stack=stack,
                  units=units[0] if units else stack, logits=logits, per_sample=per_sample,
                  grad=grad)
    if cfg.mode != "dual_margin":
        return LossPlan(**arrays, cosine=cfg.cosine, s=s, m=m,
                        margins=np.zeros(num_classes, dtype))
    if deltas is None:
        raise ValueError("loss_plan: dual_margin mode requires deltas")
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (num_classes,):
        raise ValueError(f"loss_plan: deltas shape {deltas.shape} does not match "
                         f"{num_classes} classes")
    deltas, ratio, log_ratio = (a.astype(dtype, copy=False)
                                for a in (deltas, *_ratio_terms(deltas, m)))
    return LossPlan(**arrays, cosine=True, s=s, m=m, deltas=deltas, ratio=ratio,
                    log_ratio=log_ratio)


def _checked(caller: str, embeddings, labels, prototypes, deltas,
             cfg: MarginConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, LossPlan]:
    """The public entry points' inputs as float64/int64 arrays, checked, and a
    plan for this one call."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    prototypes = np.asarray(prototypes, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if not (embeddings.ndim == prototypes.ndim in (2, 3)
            and embeddings.shape[:-2] == prototypes.shape[:-2]):
        raise ValueError(f"{caller}: embeddings {embeddings.shape} and prototypes "
                         f"{prototypes.shape} must be (n, d) and (c, d), or stacks "
                         f"(P, n, d) and (P, c, d)")
    n, c = embeddings.shape[-2], prototypes.shape[-2]
    if labels.shape != (n,):
        raise ValueError(f"{caller}: labels/embeddings length mismatch")
    check_labels(labels, c, caller)
    plan = loss_plan(deltas, cfg, embeddings.shape[:-1], np.empty_like(prototypes))
    return embeddings, labels, prototypes, plan


def _adjusted_rows(emb_units: np.ndarray, target_margins: np.ndarray, targets: np.ndarray,
                   out: np.ndarray, proto_units: np.ndarray, scaled: np.ndarray,
                   s: float, whole: np.ndarray) -> None:
    """The adjusted logits of a block of embedding rows, in ``out``: entry
    (i, j) is s * (logits[i, j] - scaled[j]), and the target entry
    s * (logits[i, y] - target_margins[i]). ``targets`` index the target
    entries of ``whole`` viewed flat, the logit array that ``out`` is a row
    block of (or is)."""
    np.matmul(emb_units, proto_units.swapaxes(-1, -2), out=out)
    flat = whole.reshape(-1)
    at_targets = flat[targets]
    out -= scaled
    flat[targets] = at_targets - target_margins
    out *= s


def _softmax_rows(adjusted: np.ndarray, targets: np.ndarray, per_sample: np.ndarray,
                  whole: np.ndarray) -> None:
    """Each row's softmax of the adjusted logits, written over them, and its
    loss, log-sum-exp minus the target entry, in ``per_sample``. One
    max-shifted exp and its row sums serve both. ``targets`` index the
    target entries as in ``_adjusted_rows``; they are read before the exp."""
    peak = np.maximum.reduce(adjusted, axis=-1, keepdims=True)
    at_targets = whole.reshape(-1)[targets]
    adjusted -= peak
    np.exp(adjusted, out=adjusted)
    sums = np.add.reduce(adjusted, axis=-1, keepdims=True)
    np.subtract((np.log(sums) + peak)[..., 0], at_targets, out=per_sample)
    adjusted /= sums


def _forward(embeddings: np.ndarray, labels: np.ndarray, prototypes: np.ndarray,
             plan: LossPlan, cfg: MarginConfig,
             helper: Helper | None = None) -> tuple[LossOutput, LossContext]:
    """The forward half of the step kernel, on checked inputs: (n, d) and
    (c, d), or stacks (P, n, d) and (P, c, d) sharing the labels and gamma.

    The adjusted logits, then their softmax, are each one
    ``parallel.halves`` call: whole, or, given the ``helper`` (only
    ``margin_loss``, whose batch is unstacked, passes one) and enough work,
    in two row halves at once; the logits' bits are then the halves' BLAS
    products'.
    """
    targets = plan.row_starts + labels  # flat indices of the target logits
    n = embeddings.shape[-2]
    units = np.concatenate([embeddings, prototypes], axis=-2, out=plan.stack)
    norms = degenerate = None
    if plan.cosine:
        units, norms, degenerate = rows_normalize(units, out=plan.units)
    if plan.ratio is None:
        scaled, dscaled, reg_value, dreg = plan.margins, None, 0.0, None
    else:
        scaled, dscaled = _gamma_terms(plan.ratio, plan.log_ratio, plan.m, cfg.gamma,
                                       cfg.eq5_sign)
        reg_value, dreg = _regularizer(plan.deltas, scaled, dscaled)
    emb_units, proto_units = units[..., :n, :], units[..., n:, :]
    target_margins = scaled[labels] + plan.m
    c, d = proto_units.shape[-2:]
    adjusted, per_sample = plan.logits, plan.per_sample
    halves(helper, n * c * d, _adjusted_rows, (emb_units, target_margins, targets, adjusted),
           proto_units, scaled, plan.s, adjusted)

    # The one finiteness check of the loss: a NaN or inf embedding or
    # prototype row shows up here as a non-finite logit row.
    if not np.logical_and.reduce(np.isfinite(adjusted), axis=None):
        *entry, sample = np.argwhere(~np.isfinite(adjusted).all(axis=-1))[0]
        raise NumericalError(f"margin_loss: non-finite logits at sample {int(sample)}"
                             + (f" of stack entry {int(entry[0])}" if entry else ""))

    halves(helper, n * c * d, _softmax_rows, (adjusted, targets, per_sample), adjusted)
    total = np.add.reduce(per_sample, axis=-1) / n + cfg.lam * reg_value  # (P,) for a stack
    out = LossOutput(total=float(total) if total.ndim == 0 else total, per_sample=per_sample)
    ctx = LossContext(cfg=cfg, labels=labels, plan=plan, units=units, probs=adjusted,
                      norms=norms, degenerate=degenerate, dscaled_dgamma=dscaled,
                      dreg_dgamma=dreg)
    return out, ctx


def _backward(ctx: LossContext,
              helper: Helper | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """The backward half of the step kernel: the gradients wrt the raw
    embeddings, the raw prototypes and gamma. The context's softmax is
    turned into the logit gradient in place.

    The softmax gradient p - onehot is chained through the scale factor,
    the logits, and (in a cosine mode) the L2 normalization of both
    embeddings and prototypes. The gamma gradient flows through the scaled
    adjustments in both the data term and the regularizer; it is 0.0
    without them. Rows that hit the zero-norm guard have no dependence on
    their raw vector, so their gradient is zero. The prototype gradient is
    written into the plan's ``grad_prototypes``. Its two matmuls are one
    ``parallel.pair`` call, made at once given the ``helper`` and enough
    work.
    """
    cfg, plan, g = ctx.cfg, ctx.plan, ctx.probs
    g.reshape(-1)[plan.row_starts + ctx.labels] -= 1.0
    g /= g.shape[0]  # batch-mean reduction

    grad_gamma = 0.0
    if plan.ratio is not None:
        # Data term: every margin-matrix column j is scaled_delta[j] (+m on
        # the target), so dL/d(scaled_delta[j]) = -s * column-sum of g.
        dscaled_data = -plan.s * np.add.reduce(g, axis=0)
        grad_gamma = float(np.add.reduce(dscaled_data * ctx.dscaled_dgamma)
                           + cfg.lam * ctx.dreg_dgamma)

    g *= plan.s  # now the gradient wrt the unscaled logits
    units, n, grad = ctx.units, g.shape[0], plan.grad
    pair(helper, g.size * units.shape[1],
         np.matmul, (g.T, units[:n], grad[n:]), np.matmul, (g, units[n:], grad[:n]))
    if plan.cosine:  # only the stack's norms are read from here on
        _chain_through_normalization(grad, units, ctx.norms, ctx.degenerate, plan.stack)
    plan.grad_prototypes[...] = grad[n:]
    return grad[:n], plan.grad_prototypes, grad_gamma


def _chain_through_normalization(
    grad_units: np.ndarray,
    units: np.ndarray,
    norms: np.ndarray,
    degenerate: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Pull gradients wrt unit rows back to raw rows through x/||x||, in
    place; ``scratch``, shaped like them, holds the products."""
    radial = np.add.reduce(np.multiply(grad_units, units, out=scratch), axis=1, keepdims=True)
    grad_units -= np.multiply(radial, units, out=scratch)
    if not np.logical_or.reduce(degenerate, axis=None):
        grad_units /= norms[:, None]
        return
    grad_units /= np.where(degenerate, 1.0, norms)[:, None]
    grad_units[degenerate] = 0.0


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

    With a leading stack axis, embeddings (P, n, d) and prototypes
    (P, c, d) are P parameter points that share ``labels`` (n,), ``deltas``
    and ``cfg`` (one gamma); ``total`` is then an array (P,) and
    ``per_sample`` (P, n), each entry bit-equal to its unstacked call.
    """
    return _forward(*_checked("margin_loss_forward", embeddings, labels, prototypes,
                              deltas, cfg), cfg)


def margin_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    prototypes: np.ndarray,
    deltas: np.ndarray | LossPlan | None,
    cfg: MarginConfig,
    helper: Helper | None = None,
) -> LossOutput:
    """Forward and backward in one call; grads filled in the output.

    ``deltas`` is either the per-class adjustments, or the run's
    ``LossPlan`` built by ``loss_plan`` from the same config (gamma aside).
    With a plan, the inputs are taken as checked: arrays of the plan's
    dtype (float32 in training), and int labels in range with one per plan
    row. A ``helper`` splits the work of a large batch (``_forward``,
    ``_backward``); a stacked one is rejected.
    """
    if isinstance(deltas, LossPlan):
        args = (embeddings, labels, prototypes, deltas)
    else:
        args = _checked("margin_loss", embeddings, labels, prototypes, deltas, cfg)
    if args[0].ndim != 2:
        raise ValueError("margin_loss: a stacked forward has no backward pass")
    out, ctx = _forward(*args, cfg, helper)
    out.grad_embeddings, out.grad_prototypes, out.grad_gamma = _backward(ctx, helper)
    return out

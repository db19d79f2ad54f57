"""End-to-end training loop: oversampled batches, norm-guided retention,
manual backprop, adaptive optimizer with decoupled weight decay, step-decay
schedule.

The step computes in float32 from float64 master parameters (mixed
precision):

* float64: the flat parameter buffer (the master), the optimizer's moments,
  the best-epoch buffer, gamma, validation and the checkpoint;
* float32: a working copy of the flat buffer, with the same views, which
  one ``np.copyto`` refreshes after each optimizer step; each step's
  gathered rows, cast once; the encoder's and the loss's forward and
  backward passes, the perturbed rows written into the batch and
  retention; the flat gradient buffer, which the optimizer reads into its
  float64 update.

The master is float64 because the decay factor ``1 - lr * wd`` (1 - 1e-9 at
the defaults) is 1.0 in float32: a float32 master would never decay.

Computed once per run:

* the class statistics, whose tally rejects a training label outside
  [0, num_classes), their margin adjustments (deltas), the per-class
  index pools partners are drawn from, and the tail pool
  (``sampler.tail_pool``) that extra rows are drawn from;
* the loss plan (``loss.loss_plan``): the mode as data, the deltas,
  |delta|/m and its log, and where each batch row's logits start in a
  flat view;
* the parameter layout: encoder weights, encoder biases, prototypes and,
  as the last element, gamma live in one flat buffer (the arrays the loop
  uses are views into it), so the optimizer makes one update per step;
* the matching views of the flat gradient buffer, which the encoder's
  backward pass and the loss write into, so no step gathers gradients;
* the optimizer's moments; its one weight decay covers every element,
  gamma included;
* a copy of the margin config, whose gamma is set from the buffer each step;
* the best-epoch buffer, shaped like the flat one, which an epoch that beats
  every earlier validation recall copies the flat buffer into; the state's
  ``best_*`` parameters are views of it. With no validation rows no epoch
  could be chosen, so ``train`` rejects such a dataset before the first step;
* one helper (``parallel.Helper``), which the encoder, the loss and the
  optimizer pass with each kernel to ``parallel.halves`` or
  ``parallel.pair``, the one place that chooses whether the helper makes
  one of its two parts. Its thread, where two or more CPUs are usable,
  starts at the first split and is joined before ``train`` returns or
  raises; the parts, and so the run's bits, do not depend on it;
* one work buffer, sized exactly for the larger of its two uses, which
  never run at once: the step's arrays (the gathered batch and each
  layer's output for both row counts, each hidden layer's delta, a spare
  region and the loss plan's work arrays) and validation's scoring block.
  The kernels write into its views, so after the first step and
  validation a run allocates no array of a batch's or a block's size.

Computed once per step: one gather of the batch's features and labels,
base and extra rows together (the base rows alone when oversampling did not
fire), into which the perturbed extra rows are written; retention, which
compacts the kept rows of every layer in place; the gamma terms of the
loss (the scaled margins, their gamma derivative and the regularizer),
shared by its forward and backward pass.
Finiteness is checked at the boundaries only: encoder input, the loss's
adjusted logits, the batch loss and the gradients. A non-finite input row
or adjusted logit, a float32 overflow included, ends the run as a
divergence, with its snapshot. The gradient check is made once per step, in ``train`` on the
flat gradient buffer before the optimizer step; the optimizer checks
nothing. Only after it fails is the first bad element traced back to its
parameter (gamma, an encoder weight or bias, or the prototypes) for the
error and its snapshot.

``save_checkpoint`` writes the JSON one array row at a time, each row
through ``json.dumps`` (the C encoder), so no list of all parameters is
built; the bytes equal a one-shot ``json.dump`` of the payload with its
arrays as lists.

The loop is a single logical agent owning one RNG stream, so identical
(config, dataset, seed) yields a bitwise-identical history.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import encoder
from .core import NumericalError, carve, carved_bytes, row_norms
from .evaluation import prototype_scores, scoring_bytes
from .loss import DIVERGENCE_LIMIT, MarginConfig, loss_plan, margin_loss, work_bytes
from .parallel import Helper, halves
from .priors import compute_class_stats, partition_classes
from .sampler import lowest_norm_indices, perturb, plan_batch, tail_pool
from .synthdata import TRAIN, VAL, Dataset, _class_pools

SELECTIONS = ("norm_guided", "random")


class TrainingDiverged(NumericalError):
    """Batch loss exceeded the divergence limit or turned non-finite."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass
class TrainConfig:
    epochs: int = 30
    base_lr: float = 0.001
    weight_decay: float = 1e-6
    lr_decay_epochs: tuple[int, ...] = (8, 16, 24)
    lr_decay_factor: float = 0.1
    batch_size: int = 32
    oversample_size: int = 8
    oversample_prob: float = 0.1
    seed: int = 42
    selection: str = "norm_guided"
    hidden_dims: tuple[int, ...] = (64, 32)
    embed_dim: int = 16
    perturb_strength: float = 0.1
    perturb_prob: float = 0.9
    # The partition.* keys: one grouping for the sampler's tail pool and the
    # grouped evaluation metrics (through TrainState.partition).
    head_threshold: int = 2000
    tail_threshold: int = 100
    margin: MarginConfig = field(default_factory=MarginConfig)

    def __post_init__(self) -> None:
        # Each message names the config key (train.* or partition.*) at fault.
        if self.epochs < 1:
            raise ValueError(f"train.epochs must be >= 1, got {self.epochs}")
        if self.base_lr <= 0:
            raise ValueError(f"train.base_lr must be > 0, got {self.base_lr}")
        if self.batch_size < 1:
            raise ValueError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.oversample_size < 0:
            raise ValueError(f"train.oversample_size must be >= 0, got {self.oversample_size}")
        if self.embed_dim < 1:
            raise ValueError(f"train.embed_dim must be >= 1, got {self.embed_dim}")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError(
                f"train.hidden_dims entries must be >= 1, got {self.hidden_dims}")
        for name in ("oversample_prob", "perturb_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"train.{name} must be in [0, 1], got {getattr(self, name)}")
        if not 0 < self.tail_threshold < self.head_threshold:
            raise ValueError(
                f"partition thresholds need 0 < partition.tail_threshold < "
                f"partition.head_threshold, got {self.tail_threshold} and {self.head_threshold}")
        if self.lr_decay_factor <= 0:
            raise ValueError(f"train.lr_decay_factor must be > 0, got {self.lr_decay_factor}")
        if self.weight_decay < 0:
            raise ValueError(f"train.weight_decay must be >= 0, got {self.weight_decay}")
        if not (math.isfinite(self.perturb_strength) and self.perturb_strength >= 0):
            raise ValueError(
                f"train.perturb_strength must be finite and >= 0, got {self.perturb_strength}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"train.selection must be one of {SELECTIONS}, "
                             f"got {self.selection!r}")
        if self.seed < 0:
            raise ValueError(f"train.seed must be >= 0, got {self.seed}")
        if min(self.lr_decay_epochs, default=0) < 0:
            raise ValueError(f"train.lr_decay_epochs must be >= 0, got {self.lr_decay_epochs}")


@dataclass
class TrainState:
    epoch: int
    step: int
    stats: "object"  # ClassStats, serialized into the checkpoint
    partition: np.ndarray  # per-class group id (HEAD / BETWEEN / TAIL)
    # Views of the best-epoch buffer, written by each improving epoch.
    best_encoder_params: encoder.EncoderParams
    best_prototypes: np.ndarray
    best_val_recall: float = -1.0
    best_gamma: float = 0.0


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """base_lr times decay_factor for every decay epoch at or before ``epoch``."""
    if epoch < 0:
        raise ValueError("lr_at: epoch must be >= 0")
    hits = sum(1 for e in cfg.lr_decay_epochs if e <= epoch)
    return cfg.base_lr * cfg.lr_decay_factor ** hits


class AdamW:
    """Adaptive moments with bias correction and decoupled weight decay.

    Decay multiplies parameters by (1 - lr * wd) before the moment-based
    update; it is never folded into the gradients. ``weight_decay`` is one
    value for every element (in training, gamma's included). The update
    runs in the parameters' dtype, whatever the gradients' (in training,
    float64 parameters and moments with float32 gradients).

    Each parameter's moments and two scratch buffers are made at its first
    step; the update writes every temporary into the scratch buffers, in
    the order of the textbook expression, so it allocates nothing. Each
    parameter's update is one ``parallel.halves`` call, at ``ADAMW_COST``
    per element: whole, or, given the ``helper`` and enough work, in two
    halves along the first axis at once. The update is elementwise, so the
    halves' bits are the whole update's.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, weight_decay: float = 0.0, helper: Helper | None = None):
        self.weight_decay = weight_decay
        self.helper = helper
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> None:
        self.t += 1
        coeffs = (lr, 1.0 - lr * self.weight_decay,
                  1.0 - self.BETA1 ** self.t, 1.0 - self.BETA2 ** self.t)
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
                self.scratch[name] = (np.empty_like(p), np.empty_like(p))
            halves(self.helper, p.size * ADAMW_COST, _adamw_update,
                   (p, grads[name], self.m[name], self.v[name], *self.scratch[name]), *coeffs)


# The work of updating one element, in the multiply-adds of ``parallel.halves``:
# it takes about as long as 25 multiply-adds of a BLAS layer (8.4 ns against
# 0.32 ns on the 2-CPU host of CHANGES.md).
ADAMW_COST = 25


def _adamw_update(p, g, m, v, s1, s2, lr: float, decay: float, bc1: float,
                  bc2: float) -> None:
    """One AdamW update of ``p`` and its moments ``m`` and ``v`` in place, with
    scratch ``s1`` and ``s2``: bit for bit ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g``, then ``p = decay p - lr (m / bc1) /
    (sqrt(v / bc2) + eps)``, each operation in the textbook order. The
    gradient is first read into ``s2``, so every operation is in the
    parameters' dtype."""
    b1, b2 = AdamW.BETA1, AdamW.BETA2
    s2[...] = g
    g = s2
    m *= b1
    m += np.multiply(1 - b1, g, out=s1)
    v *= b2
    np.multiply(1 - b2, g, out=s1)
    s1 *= g
    v += s1
    p *= decay
    np.divide(m, bc1, out=s1)
    s1 *= lr  # lr * x is x * lr exactly
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += AdamW.EPS
    s1 /= s2
    p -= s1


def _first_non_finite_param(flat: np.ndarray, views: list[np.ndarray],
                            num_layers: int) -> str:
    """Name of the parameter holding the first non-finite element of ``flat``,
    a buffer in the training layout that ``views`` come from."""
    names = ([f"encoder.weights[{i}]" for i in range(num_layers)]
             + [f"encoder.biases[{i}]" for i in range(num_layers)]
             + ["prototypes", "gamma"])
    ends = np.cumsum([v.size for v in views])
    index = np.flatnonzero(~np.isfinite(flat))[0]
    return names[int(np.searchsorted(ends, index, side="right"))]


def _views(buffer: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views of ``buffer`` shaped like ``arrays``."""
    views, start = [], 0
    for a in arrays:
        views.append(buffer[start:start + a.size].reshape(a.shape))
        start += a.size
    return views


def _flat_layout(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy ``arrays`` into one contiguous buffer; return it and a view per array."""
    flat = np.concatenate(arrays, axis=None)
    return flat, _views(flat, arrays)


def _validate(enc: encoder.EncoderParams, prototypes: np.ndarray, dataset: Dataset,
              cfg: TrainConfig, work: np.ndarray | None = None) -> float:
    """Macro recall on the validation split with current parameters; the
    scoring block is carved from the byte buffer ``work`` where one is given
    (``evaluation.prototype_scores``)."""
    val_idx = dataset.indices(VAL)
    labels = dataset.labels[val_idx]
    preds = prototype_scores(enc, prototypes, dataset.features, val_idx, cfg.margin.cosine,
                             work)[0]
    totals = np.bincount(labels, minlength=dataset.num_classes)
    hits = np.bincount(labels[preds == labels], minlength=dataset.num_classes)
    present = totals > 0
    return float(np.mean(hits[present] / totals[present]))


def train(cfg: TrainConfig, dataset: Dataset, history_path: str | None = None,
          plan_log_path: str | None = None) -> tuple[TrainState, list[dict]]:
    """Run the full training loop; returns the final state and epoch history.

    ``history_path`` (JSONL) receives one record per epoch;
    ``plan_log_path`` (JSONL) records every batch plan, one line a step.
    """
    train_idx = dataset.indices(TRAIN)
    if dataset.num_classes < 2:
        raise ValueError("train: need at least 2 classes")
    if train_idx.size < cfg.batch_size:
        raise ValueError("train: training split smaller than one batch")
    if dataset.indices(VAL).size == 0:
        raise ValueError("train: no validation rows to choose the best epoch on")

    rng = np.random.default_rng(cfg.seed)
    # A run-private copy whose gamma follows the flat buffer's last element.
    mcfg = replace(cfg.margin)
    stats = compute_class_stats(
        dataset.labels[train_idx], dataset.num_classes,
        base_margin=mcfg.m, beta=mcfg.beta, epsilon=mcfg.epsilon)
    partition = partition_classes(stats.counts, cfg.head_threshold, cfg.tail_threshold)
    pool = tail_pool(train_idx, dataset.labels, partition)

    by_class, pool_starts, pool_sizes = _class_pools(
        train_idx, dataset.labels[train_idx], dataset.num_classes)

    input_dim = dataset.features.shape[1]
    enc = encoder.init_params([input_dim, *cfg.hidden_dims, cfg.embed_dim], seed=cfg.seed)
    prototypes = rng.normal(0.0, 1.0 / math.sqrt(cfg.embed_dim),
                            size=(dataset.num_classes, cfg.embed_dim))
    # Weights, biases, prototypes and gamma (the last element) live in one
    # flat buffer; the arrays the loop uses are views into it.
    num_layers = len(enc.weights)
    flat, views = _flat_layout([*enc.weights, *enc.biases, prototypes, np.array([mcfg.gamma])])
    enc = replace(enc, weights=views[:num_layers], biases=views[num_layers:-2])
    prototypes = views[-2]
    # The step computes in float32, from a working copy of the float64 master
    # buffer with the same views, refreshed after every optimizer step.
    step_flat = flat.astype(np.float32)
    step_views = _views(step_flat, views)
    step_enc = replace(enc, weights=step_views[:num_layers], biases=step_views[num_layers:-2])
    # The gradients land in views of a matching float32 buffer: the encoder's
    # (dW, db) pairs and the loss plan's prototype gradient; gamma's is set
    # by hand.
    grad_flat = np.empty_like(step_flat)
    grad_views = _views(grad_flat, views)
    enc_grads = list(zip(grad_views[:num_layers], grad_views[num_layers:-2]))

    # The work buffer. Extra rows come only if they can fire, from a nonempty pool.
    dims, batch = enc.dims, cfg.batch_size
    most = batch + (cfg.oversample_size if cfg.oversample_prob > 0 and pool.size else 0)
    dtype = step_flat.dtype
    step_specs = [((most, dims[0]), dataset.features.dtype), ((most, dims[0]), dtype),
                  *(((most, w), dtype) for w in dims[1:]),
                  ((most * max(dims),), dtype),
                  *(((batch, w), dtype) for w in dims[1:-1]),
                  ((work_bytes(mcfg, batch, grad_views[-2]),), np.uint8)]
    work = np.empty(max(carved_bytes(step_specs), scoring_bytes(
        dims, dataset.num_classes, dataset.indices(VAL).size, mcfg.cosine)), np.uint8)
    gathered, *arrays = carve(work, step_specs)
    layers, spare = arrays[:num_layers + 1], arrays[num_layers + 1]
    deltas, loss_work = arrays[num_layers + 2:-1], arrays[-1]
    margin_plan = loss_plan(stats.deltas, mcfg, batch, grad_views[-2], loss_work)
    # Per row count, the leading rows of the gather and of the activations.
    row_views = {n: (gathered[:n], [a[:n] for a in layers]) for n in {batch, most}}
    kept = row_views[batch][1]  # where retention compacts the kept rows
    scratch = {w: spare[:batch * w].reshape(batch, w) for w in dims}
    norm_squares = spare[:most * dims[-1]].reshape(most, dims[-1])
    backward_work = [None, *((d, scratch[d.shape[1]]) for d in deltas)]
    params, grads = {"flat": flat}, {"flat": grad_flat}
    # Epoch 0 always fills it: its validation recall is >= 0 > the initial -1.
    best = np.empty_like(flat)
    best_views = _views(best, views)

    # Norm-guided retention only applies to margin-based modes; plain CE
    # falls back to random retention of the candidate set.
    norm_guided = cfg.selection == "norm_guided" and mcfg.cosine

    steps_per_epoch = math.ceil(train_idx.size / cfg.batch_size)
    state = TrainState(epoch=0, step=0, stats=stats, partition=partition,
                       best_encoder_params=replace(enc, weights=best_views[:num_layers],
                                                   biases=best_views[num_layers:-2]),
                       best_prototypes=best_views[-2])
    history: list[dict] = []
    hist_fh = open(history_path, "w") if history_path else None
    plan_fh = open(plan_log_path, "w") if plan_log_path else None
    helper = Helper()
    try:
        opt = AdamW(weight_decay=cfg.weight_decay, helper=helper)
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg)
            epoch_losses = []
            for _ in range(steps_per_epoch):
                plan = plan_batch(train_idx, dataset.labels, partition,
                                  cfg.batch_size, cfg.oversample_size,
                                  cfg.oversample_prob, rng, cfg.perturb_prob, pool=pool)
                if plan_fh:
                    plan_fh.write(plan.json_line())
                # Extra rows exist only when oversampling fired.
                rows = (np.concatenate([plan.base_indices, plan.extra_indices])
                        if plan.oversample_fired else plan.base_indices)
                gather, cache = row_views[len(rows)]
                # "clip" clips nothing here and, unlike "raise", copies nothing first.
                dataset.features.take(rows, axis=0, out=gather, mode="clip")
                feats = cache[0]
                np.copyto(feats, gather)  # cast to the step's float32
                labels = dataset.labels[rows]
                if plan.oversample_fired:
                    # Views of the gathered copy: the dataset is never written.
                    extra, extra_labels = feats[cfg.batch_size:], labels[cfg.batch_size:]
                    # One uniform same-class training sample per extra row.
                    draw = rng.integers(0, pool_sizes[extra_labels])
                    partners = dataset.features[by_class[pool_starts[extra_labels] + draw]]
                    mixed = perturb(extra, partners, cfg.perturb_strength, rng)
                    np.copyto(extra, mixed, where=plan.perturbation_mask[:, None])

                mcfg.gamma = float(flat[-1])
                try:
                    emb, cache = encoder.forward(step_enc, feats, helper=helper, out=cache[1:])
                    if len(labels) > batch:
                        if norm_guided:
                            keep = lowest_norm_indices(row_norms(emb, norm_squares), batch)
                        else:
                            keep = np.sort(rng.choice(len(labels), size=batch, replace=False))
                        # Through the spare: a gather in place would copy first.
                        for a, lead in zip(cache, kept):
                            part = scratch[a.shape[1]]
                            a.take(keep, axis=0, out=part, mode="clip")
                            np.copyto(lead, part)
                        cache, emb, labels = kept, kept[-1], labels[keep]
                    out = margin_loss(emb, labels, step_views[-2], margin_plan, mcfg,
                                      helper=helper)
                except NumericalError as exc:  # a non-finite input row or adjusted logit
                    raise TrainingDiverged(
                        f"{exc} at epoch {epoch} step {state.step}",
                        {"epoch": epoch, "step": state.step, "lr": lr, "gamma": mcfg.gamma},
                    ) from exc
                if not math.isfinite(out.total) or out.total > DIVERGENCE_LIMIT:
                    raise TrainingDiverged(
                        f"loss diverged at epoch {epoch} step {state.step}: {out.total}",
                        {"epoch": epoch, "step": state.step, "loss": out.total,
                         "lr": lr, "gamma": mcfg.gamma},
                    )
                encoder.backward(step_enc, cache, out.grad_embeddings, enc_grads, helper=helper,
                                 work=backward_work)
                grad_flat[-1] = out.grad_gamma
                if not np.logical_and.reduce(np.isfinite(grad_flat), axis=None):
                    name = _first_non_finite_param(grad_flat, views, num_layers)
                    raise TrainingDiverged(
                        f"non-finite gradient for parameter {name!r} at epoch {epoch} "
                        f"step {state.step}",
                        {"param": name, "epoch": epoch, "step": state.step,
                         "lr": lr, "gamma": mcfg.gamma},
                    )
                opt.step(params, grads, lr)
                np.copyto(step_flat, flat)
                state.step += 1
                epoch_losses.append(out.total)

            state.epoch = epoch + 1
            val_recall = _validate(enc, prototypes, dataset, cfg, work)
            record = {"epoch": epoch, "lr": lr,
                      "train_loss": float(np.mean(epoch_losses)),
                      "val_macro_recall": val_recall,
                      "gamma": float(flat[-1])}
            history.append(record)
            if hist_fh:
                hist_fh.write(json.dumps(record) + "\n")
            if val_recall > state.best_val_recall:
                state.best_val_recall = val_recall
                best[...] = flat
                state.best_gamma = float(best[-1])
    finally:
        helper.close()
        if hist_fh:
            hist_fh.close()
        if plan_fh:
            plan_fh.close()
    return state, history


def _json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj)`` in pieces, for ``obj`` holding ndarrays.

    An array is encoded as its ``tolist()``. An array of two or more
    dimensions, and a list holding arrays, is encoded one item at a time,
    so no list of all the parameters is built. Each piece comes from
    ``json.dumps`` (its C encoder), so the pieces join to the one-shot
    encoding with default separators, ``NaN`` included.
    """
    if isinstance(obj, dict):  # string keys, as in the checkpoint payload
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_chunks(value)
        yield "}"
    elif (isinstance(obj, np.ndarray) and obj.ndim > 1
          or isinstance(obj, list) and any(isinstance(x, np.ndarray) for x in obj)):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ", "
            yield from _json_chunks(item)
        yield "]"
    else:
        yield json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj)


def save_checkpoint(state: TrainState, path: str) -> None:
    """Atomic JSON checkpoint of the best parameters.

    The file is written one array row at a time; its bytes are those of
    ``json.dump`` of the same payload with every array as a list.
    """
    payload = {
        "encoder": {
            "activation": "tanh",  # the encoder's only hidden-layer nonlinearity
            "weights": state.best_encoder_params.weights,
            "biases": state.best_encoder_params.biases,
        },
        "prototypes": state.best_prototypes,
        "gamma": state.best_gamma,
        "epoch": state.epoch,
        "step": state.step,
        "best_val_recall": state.best_val_recall,
        "class_stats": vars(state.stats),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(_json_chunks(payload))
    os.replace(tmp, path)


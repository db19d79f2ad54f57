"""Batch assembly: Bernoulli-gated tail oversampling and norm-guided retention.

A batch plan draws a base batch uniformly without replacement, then with
a fixed Bernoulli probability appends extra tail-class samples, with
replacement; an extra sample may duplicate one of the base batch. After
embedding all candidates, only the batch-size lowest-norm samples are
kept; ties break by ascending candidate index so selection is a
deterministic function of (dataset, seed, step).

Computed once per run: the tail pool (``tail_pool``), the training samples
of tail classes that extra rows are drawn from. ``train`` passes it to
every ``plan_batch`` call; a call without it computes the pool itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .priors import TAIL


@dataclass
class BatchPlan:
    base_indices: np.ndarray
    extra_indices: np.ndarray
    oversample_fired: bool
    perturbation_mask: np.ndarray

    def json_line(self) -> str:
        """The plan as one JSON line, byte-equal to ``json.dumps`` of its
        fields plus a newline; a list of ints prints as JSON already."""
        mask = ", ".join(["true" if m else "false" for m in self.perturbation_mask.tolist()])
        return (f'{{"base_indices": {self.base_indices.tolist()}, '
                f'"extra_indices": {self.extra_indices.tolist()}, '
                f'"oversample_fired": {"true" if self.oversample_fired else "false"}, '
                f'"perturbation_mask": [{mask}]}}\n')


def tail_pool(train_indices: np.ndarray, labels: np.ndarray,
              partition: np.ndarray) -> np.ndarray:
    """The ids in ``train_indices`` whose class is in the tail group: the
    population that oversampling draws extra rows from."""
    train_indices = np.asarray(train_indices, dtype=np.int64)
    return train_indices[partition[labels[train_indices]] == TAIL]


def plan_batch(
    train_indices: np.ndarray,
    labels: np.ndarray,
    partition: np.ndarray,
    batch_size: int,
    oversample_size: int,
    oversample_prob: float,
    rng: np.random.Generator,
    perturb_prob: float = 0.9,
    pool: np.ndarray | None = None,
) -> BatchPlan:
    """Plan one batch: base draw plus optional tail-class oversampling.

    ``train_indices`` are dataset-level sample ids eligible for training;
    ``labels`` are the full per-sample label array indexed by those ids;
    ``partition`` holds each class's group id (``priors.partition_classes``).
    ``pool`` is ``tail_pool(train_indices, labels, partition)``, which a
    fired call computes when it is not given.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if train_indices.size < batch_size:
        raise ValueError(
            f"plan_batch: need at least {batch_size} training samples, have {train_indices.size}"
        )
    base = rng.choice(train_indices, size=batch_size, replace=False)
    fired = bool(rng.random() < oversample_prob)
    extra = np.empty(0, dtype=np.int64)
    mask = np.empty(0, dtype=bool)
    if fired:
        if pool is None:
            pool = tail_pool(train_indices, labels, partition)
        if pool.size == 0:
            warnings.warn("plan_batch: oversample fired but no tail-class samples; skipping")
            fired = False
        else:
            # The draw Generator.choice(pool, oversample_size, replace=True)
            # makes, without its argument handling: same values, same stream.
            extra = pool[rng.integers(0, pool.size, size=oversample_size)]
            mask = rng.random(oversample_size) < perturb_prob
    return BatchPlan(base_indices=base, extra_indices=extra, oversample_fired=fired,
                     perturbation_mask=mask)


def perturb(
    features: np.ndarray,
    partners: np.ndarray,
    strength: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Feature-space stand-in for image augmentation.

    Each row is convexly mixed toward a same-class partner row with a
    random weight in [0, min(strength, 1)] and receives additive
    Gaussian noise of scale ``strength``. Zero strength is the identity.
    The rows are computed in the dtype the two inputs promote to.
    """
    features, partners = np.asarray(features), np.asarray(partners)
    if not math.isfinite(strength) or strength < 0:
        raise ValueError(f"perturb: strength must be finite and >= 0, got {strength}")
    if features.shape != partners.shape:
        raise ValueError("perturb: features/partners shape mismatch")
    if strength == 0:
        return features.copy()
    w = rng.uniform(0.0, min(strength, 1.0), size=(features.shape[0], 1))
    noise = rng.normal(0.0, strength, size=features.shape)
    # features + w * (partners - features) + noise, in one buffer.
    out = partners - features
    out *= w
    out += features
    out += noise
    return out


def lowest_norm_indices(norms: np.ndarray, keep: int) -> np.ndarray:
    """Positions of the ``keep`` smallest norms; ties by ascending index."""
    norms = np.asarray(norms)
    if norms.size < keep:
        raise ValueError(f"lowest_norm_indices: need >= {keep} candidates, have {norms.size}")
    kept = norms.argsort(kind="stable")[:keep]
    kept.sort()
    return kept


"""Deterministic synthetic long-tailed datasets for desk-scale experiments.

Class means live on the unit sphere with a minimum pairwise angular
separation (the loss operates on cosine logits, so directional clusters
are the natural geometry). Within-class noise is added in raw space so
embedding norms genuinely vary. Counts decay geometrically from the head
count down to head_count / imbalance_ratio.
``SyntheticSpec`` owns the whole dataset: the generator's settings, the
split fractions and the count of held-out unknown classes, each checked
when the spec is built. A ``Dataset`` carries the spec that generated it;
``split`` draws from ``spec.seed + 1`` and ``open_set_partition`` from
``spec.seed + 2``, so the split and the unknown pool follow from the spec
alone, and ``dataset.json`` records all of it.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

TRAIN, VAL, TEST, UNKNOWN = 0, 1, 2, 3
SPLIT_NAMES = {TRAIN: "train", VAL: "val", TEST: "test", UNKNOWN: "unknown"}


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 20
    dim: int = 16
    imbalance_ratio: float = 100.0
    head_count: int = 1000
    cluster_spread: float = 0.3
    unknown_class_count: int = 0
    seed: int = 0
    min_angle: float = 0.15  # radians, minimum pairwise mean separation
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1

    def __post_init__(self) -> None:
        # Each message names the data.* config key at fault.
        if self.num_classes < 2:
            raise ValueError(f"data.classes must be >= 2, got {self.num_classes}")
        if self.dim < 2:
            raise ValueError(f"data.dim must be >= 2, got {self.dim}")
        if self.imbalance_ratio < 1:
            raise ValueError(f"data.imbalance_ratio must be >= 1, got {self.imbalance_ratio}")
        if self.cluster_spread <= 0:
            raise ValueError(f"data.cluster_spread must be > 0, got {self.cluster_spread}")
        # cos is even, so a negative angle would silently act as its magnitude.
        if self.min_angle < 0:
            raise ValueError(f"data.min_angle must be >= 0, got {self.min_angle}")
        for key, value in (("data.head_count", self.head_count),
                           ("data.unknown_classes", self.unknown_class_count),
                           ("data.seed", self.seed)):
            if value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        fractions = {"data.train_frac": self.train_frac, "data.val_frac": self.val_frac,
                     "data.test_frac": self.test_frac}
        for key, value in fractions.items():
            if value <= 0:
                raise ValueError(f"{key} must be > 0, got {value}")
        # ``split`` draws val and test and gives train every row they leave,
        # so a sum other than 1 would not be the split that runs.
        total = sum(fractions.values())
        if abs(total - 1) > 1e-9:
            raise ValueError(f"{' + '.join(fractions)} must be 1, got {total}")
        known = self.num_classes - self.unknown_class_count
        if known < 2:
            raise ValueError(
                f"data.unknown_classes = {self.unknown_class_count} leaves {known} of "
                f"data.classes = {self.num_classes} known; training needs at least 2 "
                f"known classes")


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray  # per-sample TRAIN/VAL/TEST/UNKNOWN, -1 when unassigned
    known_mask: np.ndarray  # per-class boolean
    num_classes: int
    spec: SyntheticSpec  # what generated, splits and partitions it

    def indices(self, which: int) -> np.ndarray:
        return np.flatnonzero(self.split == which)

    def __len__(self) -> int:
        return self.features.shape[0]


def class_count_schedule(spec: SyntheticSpec) -> np.ndarray:
    """Per-class sample counts under a geometric decay."""
    c = spec.num_classes
    if spec.imbalance_ratio == 1:
        return np.full(c, spec.head_count, dtype=np.int64)
    j = np.arange(c, dtype=np.float64)
    counts = spec.head_count * np.power(spec.imbalance_ratio, -j / (c - 1))
    counts = np.maximum(np.round(counts).astype(np.int64), 1)
    counts[0] = spec.head_count
    counts[-1] = max(1, int(round(spec.head_count / spec.imbalance_ratio)))
    return counts


def _sphere_means(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit class means, drawn one candidate at a time; a candidate is kept
    when its cosine to every mean kept so far is at most cos(min_angle)."""
    max_cos = np.cos(spec.min_angle)
    means = np.empty((spec.num_classes, spec.dim))
    kept = 0
    attempts = 0
    limit = 500 * spec.num_classes
    while kept < spec.num_classes:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"cannot place {spec.num_classes} class means with data.min_angle = "
                f"{spec.min_angle} in data.dim = {spec.dim}; raise data.dim or lower "
                f"data.min_angle")
        v = rng.normal(size=spec.dim)
        v /= np.linalg.norm(v)
        if (means[:kept] @ v <= max_cos).all():
            means[kept] = v
            kept += 1
    return means


def generate(spec: SyntheticSpec) -> Dataset:
    """Generate features and labels; splits are unassigned (-1).

    Each class's noise is drawn, in class order, and added to its mean
    straight into that class's rows of one preallocated feature matrix, so
    the matrix exists once and at most one class's noise beside it; the
    labels are one ``np.repeat``.
    """
    rng = np.random.default_rng(spec.seed)
    means = _sphere_means(spec, rng)
    counts = class_count_schedule(spec)
    ends = np.cumsum(counts)
    features = np.empty((int(ends[-1]), spec.dim))
    for j, (start, stop) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
        noise = rng.normal(0.0, spec.cluster_spread, size=(stop - start, spec.dim))
        np.add(means[j], noise, out=features[start:stop])
    del noise  # the last class's, not alive beside the labels and split
    # Training casts the features to float32, so they must be finite there:
    # checked on the extremes (a NaN fails both tests), allocating nothing.
    limit = float(np.finfo(np.float32).max)
    if not (features.min() >= -limit and features.max() <= limit):
        raise ValueError(f"data.cluster_spread = {spec.cluster_spread} makes non-finite "
                         f"features, or features beyond float32's range; lower it")
    return Dataset(
        features=features,
        labels=np.repeat(np.arange(spec.num_classes, dtype=np.int64), counts),
        split=np.full(features.shape[0], -1, dtype=np.int64),
        known_mask=np.ones(spec.num_classes, dtype=bool),
        num_classes=spec.num_classes,
        spec=spec,
    )


def _class_pools(ids: np.ndarray, labels: np.ndarray,
                 num_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ids`` grouped by their ``labels``, keeping their order within a
    class, with each class's start and size in that order."""
    sizes = np.bincount(labels, minlength=num_classes)
    return ids[np.argsort(labels, kind="stable")], np.cumsum(sizes) - sizes, sizes


def split(dataset: Dataset) -> Dataset:
    """Stratified train/val/test assignment by the spec's fractions, drawn
    from ``spec.seed + 1``.

    Every class with at least 3 samples gets at least one sample in each
    split; classes with fewer go entirely to train, named in one warning.
    """
    f_val, f_test = dataset.spec.val_frac, dataset.spec.test_frac
    rng = np.random.default_rng(dataset.spec.seed + 1)
    assignment = np.full(len(dataset), TRAIN, dtype=np.int64)
    by_class, starts, sizes = _class_pools(
        np.arange(len(dataset)), dataset.labels, dataset.num_classes)
    small = []
    for j in range(dataset.num_classes):
        n = int(sizes[j])
        if n == 0:
            continue
        if n < 3:
            small.append(j)
            continue
        idx = rng.permutation(by_class[starts[j]:starts[j] + n])
        n_val = max(1, int(round(f_val * n)))
        n_test = max(1, int(round(f_test * n)))
        assignment[idx[:n_val]] = VAL
        assignment[idx[n_val:n_val + n_test]] = TEST
    if small:
        warnings.warn(f"split: {len(small)} class(es) have fewer than 3 samples and are all "
                      f"assigned to train: class ids {small}")
    return replace(dataset, split=assignment)


def open_set_partition(dataset: Dataset) -> Dataset:
    """Move all samples of ``spec.unknown_class_count`` uniformly chosen
    classes, drawn from ``spec.seed + 2``, to a held-out pool."""
    count = dataset.spec.unknown_class_count
    known_mask = np.ones(dataset.num_classes, dtype=bool)
    assignment = dataset.split.copy()
    if count > 0:
        rng = np.random.default_rng(dataset.spec.seed + 2)
        unknown = rng.choice(dataset.num_classes, size=count, replace=False)
        known_mask[unknown] = False
        assignment[np.isin(dataset.labels, unknown)] = UNKNOWN
    return replace(dataset, split=assignment, known_mask=known_mask)


def export_csv(dataset: Dataset, csv_path: str, sidecar_path: str) -> None:
    """Write features/label/split rows plus a JSON sidecar with the spec."""
    dim = dataset.features.shape[1]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{k}" for k in range(dim)] + ["label", "split"])
        for row, label, sp in zip(dataset.features, dataset.labels, dataset.split):
            name = SPLIT_NAMES.get(int(sp), "unassigned")
            writer.writerow([repr(float(v)) for v in row] + [int(label), name])
    sidecar = {
        "spec": asdict(dataset.spec),
        "num_classes": dataset.num_classes,
        "known_mask": dataset.known_mask.tolist(),
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)


"""Unit tests for the synthetic long-tailed dataset generator."""

import csv
import json
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from dualmargin.synthdata import (
    SPLIT_NAMES,
    TEST,
    TRAIN,
    UNKNOWN,
    VAL,
    SyntheticSpec,
    _sphere_means,
    class_count_schedule,
    export_csv,
    generate,
    open_set_partition,
    split,
)


def _loop_sphere_means(spec, rng):
    """Class-mean placement as one dot product per kept mean."""
    max_cos = np.cos(spec.min_angle)
    means, attempts = [], 0
    while len(means) < spec.num_classes:
        attempts += 1
        if attempts > 500 * spec.num_classes:
            raise ValueError("cannot place")
        v = rng.normal(size=spec.dim)
        v /= np.linalg.norm(v)
        if all(float(v @ u) <= max_cos for u in means):
            means.append(v)
    return np.stack(means)


def _loop_generate(spec):
    """Features and labels as one array per class, joined at the end."""
    rng = np.random.default_rng(spec.seed)
    means = _sphere_means(spec, rng)
    feats, labels = [], []
    for j, n_j in enumerate(class_count_schedule(spec)):
        noise = rng.normal(0.0, spec.cluster_spread, size=(int(n_j), spec.dim))
        feats.append(means[j] + noise)
        labels.append(np.full(int(n_j), j, dtype=np.int64))
    return np.concatenate(feats), np.concatenate(labels)


def _loop_split(dataset, seed):
    """Stratified assignment with one ``labels == j`` scan per class."""
    f_val, f_test = dataset.spec.val_frac, dataset.spec.test_frac
    rng = np.random.default_rng(seed)
    assignment = np.full(len(dataset), TRAIN, dtype=np.int64)
    for j in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == j)
        n = idx.size
        if n < 3:
            continue
        idx = rng.permutation(idx)
        n_val = max(1, int(round(f_val * n)))
        n_test = max(1, int(round(f_test * n)))
        assignment[idx[:n_val]] = VAL
        assignment[idx[n_val:n_val + n_test]] = TEST
    return assignment


class TestCountSchedule:
    def test_balanced(self):
        spec = SyntheticSpec(num_classes=5, imbalance_ratio=1.0, head_count=100)
        np.testing.assert_array_equal(class_count_schedule(spec), [100] * 5)

    def test_geometric_example(self):
        spec = SyntheticSpec(num_classes=3, head_count=1000, imbalance_ratio=100.0)
        np.testing.assert_array_equal(class_count_schedule(spec), [1000, 100, 10])

    def test_realism_preset(self):
        spec = SyntheticSpec(num_classes=10, head_count=6269, imbalance_ratio=1044.8)
        counts = class_count_schedule(spec)
        assert counts[0] == 6269
        assert counts[-1] == 6

    def test_ratio_respected_within_one(self):
        for ratio in (10.0, 100.0, 333.0):
            spec = SyntheticSpec(num_classes=7, head_count=900, imbalance_ratio=ratio)
            counts = class_count_schedule(spec)
            realized = counts.max() / counts.min()
            ideal_min = 900 / ratio
            assert abs(counts.min() - ideal_min) <= 1.0
            assert counts.max() == 900
            assert realized > 1

    def test_monotone_non_increasing(self):
        spec = SyntheticSpec(num_classes=12, head_count=500, imbalance_ratio=50.0)
        counts = class_count_schedule(spec)
        assert np.all(np.diff(counts) <= 0)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match=r"data\.imbalance_ratio must be >= 1"):
            SyntheticSpec(imbalance_ratio=0.5)


class TestGenerate:
    def test_deterministic(self):
        spec = SyntheticSpec(num_classes=4, dim=6, head_count=30, seed=5)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_counts_match_schedule(self):
        spec = SyntheticSpec(num_classes=3, head_count=100, imbalance_ratio=10.0,
                             dim=4, seed=0)
        ds = generate(spec)
        counts = np.bincount(ds.labels, minlength=3)
        np.testing.assert_array_equal(counts, class_count_schedule(spec))

    def test_clusters_near_unit_means(self):
        spec = SyntheticSpec(num_classes=3, dim=8, head_count=200,
                             imbalance_ratio=2.0, cluster_spread=0.05, seed=1)
        ds = generate(spec)
        for j in range(3):
            mean = ds.features[ds.labels == j].mean(axis=0)
            assert abs(np.linalg.norm(mean) - 1.0) < 0.05

    def test_non_finite_features_name_the_spread(self):
        # The spread itself is finite; the features it scales overflow.
        with pytest.raises(ValueError, match=r"data\.cluster_spread = 1e\+308 makes non-finite"):
            generate(SyntheticSpec(num_classes=3, dim=4, head_count=20, cluster_spread=1e308))

    def test_features_beyond_float32_name_the_spread(self):
        # Finite in float64, but infinite once training casts them to float32.
        with pytest.raises(ValueError, match=r"data\.cluster_spread = 1e\+300 makes .* "
                                             r"beyond float32's range"):
            generate(SyntheticSpec(num_classes=3, dim=4, head_count=20, cluster_spread=1e300))

    def test_infeasible_separation(self):
        spec = SyntheticSpec(num_classes=50, dim=2, min_angle=1.5, head_count=5)
        with pytest.raises(ValueError, match="raise data.dim or lower data.min_angle"):
            generate(spec)

    def test_validation(self):
        # The spec rejects these when it is built, before anything is drawn.
        with pytest.raises(ValueError, match=r"data\.classes must be >= 2, got 1"):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError, match=r"data\.dim must be >= 2, got 1"):
            SyntheticSpec(dim=1)
        with pytest.raises(ValueError, match=r"data\.cluster_spread must be > 0"):
            SyntheticSpec(cluster_spread=0.0)
        # cos is even, so a negative angle would silently act as its magnitude.
        with pytest.raises(ValueError, match=r"data\.min_angle must be >= 0, got -1"):
            SyntheticSpec(min_angle=-1.0)
        for kwargs, key in (({"head_count": -1}, "head_count"),
                            ({"unknown_class_count": -1}, "unknown_classes"),
                            ({"seed": -1}, "seed")):
            with pytest.raises(ValueError, match=rf"^data\.{key} must be >= 0, got -1$"):
                SyntheticSpec(**kwargs)


class TestGenerateMemory:
    def test_peak_holds_the_dataset_once(self):
        # The features, labels and split exist once, beside at most one
        # class's noise (the largest, the head class's): no per-class copy
        # of the features lives until a concatenation.
        spec = SyntheticSpec(num_classes=50, dim=32, head_count=2000, imbalance_ratio=10.0)
        counts = class_count_schedule(spec)
        rows = int(counts.sum())
        dataset_bytes = rows * spec.dim * 8 + 2 * rows * 8  # features, labels, split
        noise_bytes = int(counts.max()) * spec.dim * 8
        tracemalloc.start()
        try:
            generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dataset_bytes + noise_bytes + 64 * 1024, (peak, dataset_bytes, noise_bytes)


class TestSplit:
    def test_ten_sample_class(self):
        spec = SyntheticSpec(num_classes=2, head_count=10, imbalance_ratio=1.0,
                             dim=4, seed=2)
        ds = split(generate(spec))
        for j in range(2):
            mask = ds.labels == j
            assert np.sum(ds.split[mask] == VAL) == 1
            assert np.sum(ds.split[mask] == TEST) == 1
            assert np.sum(ds.split[mask] == TRAIN) == 8

    def test_tiny_class_warns_and_goes_to_train(self):
        spec = SyntheticSpec(num_classes=3, head_count=200, imbalance_ratio=100.0,
                             dim=4, seed=3)
        ds = generate(spec)
        assert np.sum(ds.labels == 2) == 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = split(ds)
        assert [str(w.message) for w in caught] == [
            "split: 1 class(es) have fewer than 3 samples and are all assigned to train: "
            "class ids [2]"]
        assert np.all(out.split[out.labels == 2] == TRAIN)

    def test_small_classes_share_one_warning_and_the_same_split(self):
        # 40 classes of one sample each: one warning names all of them, and
        # the split is what the per-class loop gave (every row in train).
        spec = SyntheticSpec(num_classes=40, head_count=1, imbalance_ratio=1.0, dim=4, seed=5)
        ds = generate(spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = split(ds)
        assert len(caught) == 1
        assert str(caught[0].message).startswith("split: 40 class(es) have fewer than 3")
        assert str(caught[0].message).endswith(f"class ids {list(range(40))}")
        assert np.all(out.split == TRAIN)

    def test_stratification_fractions(self):
        spec = SyntheticSpec(num_classes=4, head_count=400, imbalance_ratio=4.0,
                             dim=4, seed=4)
        ds = split(generate(spec))
        for j in range(4):
            mask = ds.labels == j
            n = mask.sum()
            frac_test = np.sum(ds.split[mask] == TEST) / n
            assert abs(frac_test - 0.1) <= 1.0 / n + 1e-9

    def test_deterministic(self):
        spec = SyntheticSpec(num_classes=3, head_count=50, imbalance_ratio=2.0,
                             dim=4, seed=6)
        a = split(generate(spec))
        b = split(generate(spec))
        np.testing.assert_array_equal(a.split, b.split)

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match=r"^data\.train_frac \+ data\.val_frac \+ "
                                             r"data\.test_frac must be <= 1, got 1\.4"):
            SyntheticSpec(val_frac=0.3, test_frac=0.3)
        with pytest.raises(ValueError, match=r"^data\.test_frac must be > 0, got 0$"):
            SyntheticSpec(test_frac=0)

    def test_fractions_come_from_the_spec(self):
        spec = SyntheticSpec(num_classes=3, head_count=100, imbalance_ratio=1.0, dim=4,
                             train_frac=0.5, val_frac=0.2, test_frac=0.3)
        ds = split(generate(spec))
        for j in range(3):
            mask = ds.labels == j
            assert np.sum(ds.split[mask] == VAL) == 20
            assert np.sum(ds.split[mask] == TEST) == 30


class TestOpenSetPartition:
    def _dataset(self, unknown_class_count, seed=7):
        spec = SyntheticSpec(num_classes=10, head_count=40, imbalance_ratio=4.0,
                             dim=6, seed=seed, unknown_class_count=unknown_class_count)
        return split(generate(spec))

    def test_zero_unknown(self):
        ds = open_set_partition(self._dataset(0))
        assert np.all(ds.known_mask)
        assert ds.indices(UNKNOWN).size == 0

    def test_three_unknown_classes(self):
        ds = open_set_partition(self._dataset(3))
        assert np.sum(~ds.known_mask) == 3
        unknown_classes = np.flatnonzero(~ds.known_mask)
        train_labels = ds.labels[ds.indices(TRAIN)]
        assert not np.any(np.isin(train_labels, unknown_classes))
        assert np.all(np.isin(ds.labels[ds.indices(UNKNOWN)], unknown_classes))

    def test_deterministic(self):
        a = open_set_partition(self._dataset(3))
        b = open_set_partition(self._dataset(3))
        np.testing.assert_array_equal(a.known_mask, b.known_mask)

    def test_draws_from_spec_seed_plus_two(self):
        for seed in range(5):
            ds = open_set_partition(self._dataset(3, seed=seed))
            expected = np.random.default_rng(seed + 2).choice(10, size=3, replace=False)
            np.testing.assert_array_equal(np.flatnonzero(~ds.known_mask), np.sort(expected))

    def test_too_many_unknown(self):
        # A spec that leaves fewer than 2 known classes cannot be built.
        for count in (9, 10):
            with pytest.raises(ValueError, match=rf"^data\.unknown_classes = {count} leaves "
                                                 rf"{10 - count} of data\.classes = 10 known"):
                SyntheticSpec(num_classes=10, unknown_class_count=count)


class TestCsvRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        spec = SyntheticSpec(num_classes=3, head_count=20, imbalance_ratio=2.0,
                             dim=4, seed=8, unknown_class_count=1)
        ds = open_set_partition(split(generate(spec)))
        csv_path = str(tmp_path / "data.csv")
        sidecar_path = str(tmp_path / "data.json")
        export_csv(ds, csv_path, sidecar_path)
        with open(csv_path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["f0", "f1", "f2", "f3", "label", "split"]
        split_ids = {name: sid for sid, name in SPLIT_NAMES.items()}
        np.testing.assert_array_equal([[float(v) for v in r[:4]] for r in rows], ds.features)
        np.testing.assert_array_equal([int(r[4]) for r in rows], ds.labels)
        np.testing.assert_array_equal([split_ids[r[5]] for r in rows], ds.split)
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        assert sidecar == {"spec": asdict(spec), "num_classes": 3,
                           "known_mask": ds.known_mask.tolist()}


class TestMatchesPerClassLoops:
    """The vectorized set-up gives the same bits as the per-class loops."""

    @pytest.mark.parametrize("num_classes, dim, min_angle",
                             [(20, 16, 0.15), (60, 8, 0.6), (200, 64, 0.15), (12, 3, 0.5)])
    def test_sphere_means(self, num_classes, dim, min_angle):
        for seed in range(40):
            spec = SyntheticSpec(num_classes=num_classes, dim=dim, min_angle=min_angle,
                                 seed=seed)
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(_sphere_means(spec, rng_a),
                                          _loop_sphere_means(spec, rng_b))
            assert rng_a.random() == rng_b.random()  # the same draws were made

    def test_sphere_means_infeasible_raises_after_the_same_attempts(self):
        spec = SyntheticSpec(num_classes=10, dim=2, min_angle=1.0)
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError, match="cannot place 10 class means"):
            _sphere_means(spec, rng_a)
        with pytest.raises(ValueError):
            _loop_sphere_means(spec, rng_b)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("num_classes, dim, head_count, ratio, spread",
                             [(20, 16, 100, 100.0, 0.3), (7, 3, 50, 1.0, 0.05),
                              (40, 8, 30, 200.0, 2.0), (2, 2, 9, 3.0, 0.7)])
    def test_generate(self, num_classes, dim, head_count, ratio, spread):
        for seed in range(40):
            spec = SyntheticSpec(num_classes=num_classes, dim=dim, head_count=head_count,
                                 imbalance_ratio=ratio, cluster_spread=spread, seed=seed)
            ds = generate(spec)
            features, labels = _loop_generate(spec)
            np.testing.assert_array_equal(ds.features, features)
            np.testing.assert_array_equal(ds.labels, labels)
            assert ds.labels.dtype == labels.dtype

    def test_split(self):
        for seed in range(40):
            spec = SyntheticSpec(num_classes=25, head_count=60, imbalance_ratio=30.0,
                                 dim=4, seed=seed)
            ds = generate(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = split(ds)
            np.testing.assert_array_equal(got.split, _loop_split(ds, seed + 1))

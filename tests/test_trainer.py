"""Unit tests for the optimizer, LR schedule and training loop."""

import hashlib
import json
import os
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dualmargin.loss
import dualmargin.trainer
from dualmargin import encoder as encoder_module
from dualmargin.core import NumericalError, rows_normalize
from dualmargin.evaluation import SCORE_BLOCK_ROWS, scoring_bytes
from dualmargin.loss import MarginConfig, loss_plan, margin_loss, margin_loss_forward
from dualmargin.synthdata import TRAIN, VAL, SyntheticSpec, generate, split
from dualmargin.trainer import (
    AdamW,
    TrainConfig,
    TrainingDiverged,
    _validate,
    lr_at,
    save_checkpoint,
    train,
)


def _fast_config(**overrides):
    defaults = dict(
        epochs=3,
        lr_decay_epochs=(2,),
        batch_size=16,
        oversample_size=4,
        hidden_dims=(16,),
        embed_dim=8,
        head_threshold=60,
        tail_threshold=20,
        seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def _small_dataset(seed=0, num_classes=5, head_count=80, ratio=10.0):
    spec = SyntheticSpec(num_classes=num_classes, dim=6, head_count=head_count,
                         imbalance_ratio=ratio, cluster_spread=0.25, seed=seed)
    return split(generate(spec))


class TestLrSchedule:
    def test_defaults(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == pytest.approx(0.001)
        assert lr_at(7, cfg) == pytest.approx(0.001)
        assert lr_at(8, cfg) == pytest.approx(0.0001)
        assert lr_at(16, cfg) == pytest.approx(1e-5)
        assert lr_at(24, cfg) == pytest.approx(1e-6)
        assert lr_at(29, cfg) == pytest.approx(1e-6)

    def test_empty_decay_set(self):
        cfg = TrainConfig(lr_decay_epochs=())
        assert lr_at(25, cfg) == pytest.approx(0.001)

    def test_negative_epoch(self):
        with pytest.raises(ValueError, match="epoch"):
            lr_at(-1, TrainConfig())


class TestAdamW:
    def test_zero_grads_zero_decay_unchanged(self):
        opt = AdamW(weight_decay=0.0)
        p = {"w": np.array([1.0, -2.0])}
        opt.step(p, {"w": np.zeros(2)}, lr=0.1)
        np.testing.assert_allclose(p["w"], [1.0, -2.0])

    def test_decoupled_decay_scales_params(self):
        opt = AdamW(weight_decay=0.5)
        p = {"w": np.array([1.0, -2.0])}
        opt.step(p, {"w": np.zeros(2)}, lr=0.1)
        np.testing.assert_allclose(p["w"], [0.95, -1.9])

    def test_scalar_first_step(self):
        # Frozen oracle: bias-corrected moments make the first step
        # exactly lr * g / (|g| + eps), so 1.0 -> ~0.9 at lr = 0.1.
        opt = AdamW(weight_decay=0.0)
        p = {"w": np.array([1.0])}
        opt.step(p, {"w": np.array([1.0])}, lr=0.1)
        assert p["w"][0] == pytest.approx(0.9, abs=1e-7)

    def test_decay_override(self):
        # The training layout: one flat buffer whose last element is gamma,
        # which decays with the weights.
        opt = AdamW(weight_decay=0.5)
        p = {"flat": np.array([1.0, -2.0, 1.0])}
        opt.step(p, {"flat": np.zeros(3)}, lr=0.1)
        np.testing.assert_array_equal(p["flat"], [0.95, -1.9, 0.95])

    def test_decay_of_the_float64_master_is_exact(self):
        # The training step's gradients are float32, but the update runs on
        # the float64 master: with zero gradients one step multiplies it by
        # exactly 1 - lr * wd, a factor that float32 rounds to 1.0.
        cfg = TrainConfig()
        decay = 1.0 - cfg.base_lr * cfg.weight_decay
        assert np.float32(decay) == 1.0
        p0 = np.random.default_rng(2).normal(size=1000)
        opt = AdamW(weight_decay=cfg.weight_decay)
        p = {"flat": p0.copy()}
        opt.step(p, {"flat": np.zeros(1000, dtype=np.float32)}, lr=cfg.base_lr)
        assert np.array_equal(p["flat"], p0 * decay)
        assert not np.array_equal(p["flat"], p0)
        assert p["flat"].dtype == opt.m["flat"].dtype == opt.v["flat"].dtype == np.float64

    def test_matches_the_textbook_expression(self):
        # Five steps, against the update written out with fresh
        # temporaries; equal bit for bit.
        rng = np.random.default_rng(1)
        size = 1000  # enough elements that a reordered operation shows
        wd = 0.3
        p0 = rng.normal(size=size)
        opt = AdamW(weight_decay=wd)
        p = {"flat": p0.copy()}
        ref, m, v = p0.copy(), np.zeros(size), np.zeros(size)
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 6):
            g = rng.normal(size=size)
            lr = 0.1 / t
            opt.step(p, {"flat": g}, lr=lr)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            ref *= 1.0 - lr * wd
            ref -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        assert np.array_equal(p["flat"], ref)


class TestTrainConfig:
    def test_defaults_match_recipe(self):
        cfg = TrainConfig()
        assert cfg.epochs == 30
        assert cfg.base_lr == 0.001
        assert cfg.weight_decay == 1e-6
        assert cfg.lr_decay_epochs == (8, 16, 24)
        assert cfg.lr_decay_factor == 0.1
        assert cfg.batch_size == 32
        assert cfg.oversample_size == 8
        assert cfg.oversample_prob == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(selection="highest_norm")
        with pytest.raises(ValueError, match="lr_decay_factor must be > 0"):
            TrainConfig(lr_decay_factor=0.0)
        with pytest.raises(ValueError, match="weight_decay must be >= 0"):
            TrainConfig(weight_decay=-1e-6)
        TrainConfig(weight_decay=0.0)


class TestTrainLoop:
    def test_separable_blobs_reach_perfect_validation(self):
        spec = SyntheticSpec(num_classes=2, dim=6, head_count=100,
                             imbalance_ratio=1.0, cluster_spread=0.05, seed=1)
        dataset = split(generate(spec))
        cfg = _fast_config(epochs=5, seed=1)
        state, history = train(cfg, dataset)
        assert state.best_val_recall == pytest.approx(1.0)

    def test_identical_seeds_identical_history(self):
        dataset = _small_dataset(seed=2)
        cfg = _fast_config(seed=3)
        _, hist_a = train(cfg, dataset)
        _, hist_b = train(cfg, dataset)
        assert hist_a == hist_b

    def test_history_structure(self):
        dataset = _small_dataset(seed=4)
        cfg = _fast_config(seed=4)
        state, history = train(cfg, dataset)
        assert len(history) == cfg.epochs
        for rec in history:
            assert set(rec) == {"epoch", "lr", "train_loss", "val_macro_recall", "gamma"}
        assert history[-1]["lr"] == pytest.approx(lr_at(cfg.epochs - 1, cfg))
        assert state.best_encoder_params is not None
        assert state.best_prototypes is not None

    def test_history_and_plan_logs_written(self, tmp_path):
        import json

        dataset = _small_dataset(seed=5)
        cfg = _fast_config(seed=5, epochs=2)
        hist_path = str(tmp_path / "history.jsonl")
        plan_path = str(tmp_path / "plans.jsonl")
        _, history = train(cfg, dataset, history_path=hist_path, plan_log_path=plan_path)
        lines = [json.loads(line) for line in pathlib.Path(hist_path).read_text().splitlines()]
        assert lines == history
        plans = [json.loads(line) for line in pathlib.Path(plan_path).read_text().splitlines()]
        assert all(len(p["base_indices"]) == cfg.batch_size for p in plans)

    def test_oversampled_plan_stream_is_pinned(self, tmp_path):
        # Frozen oracle of plans.jsonl: every step fires, so the base,
        # extra-row and perturbation-mask draws all show in its bytes,
        # which the frozen-loss oracles below do not read.
        plan_path = tmp_path / "plans.jsonl"
        train(_fast_config(epochs=2, oversample_prob=1.0), _small_dataset(),
              plan_log_path=str(plan_path))
        data = plan_path.read_bytes()
        assert data.count(b'"oversample_fired": true') == data.count(b"\n") == 18
        assert hashlib.sha256(data).hexdigest() == (
            "4f2b0077bd0833a94b28bf1fb0623c3441984779f8cd667825066fb6c7758ef4")

    def test_unit_view_invariance_of_prototype_scale(self):
        # Rescaling raw prototypes leaves margin-mode losses unchanged.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 4))
        labels = rng.integers(0, 3, size=5)
        deltas = np.linspace(0, 0.15, 3)
        cfg = MarginConfig()
        a, _ = margin_loss_forward(x, labels, w, deltas, cfg)
        b, _ = margin_loss_forward(x, labels, 4.2 * w, deltas, cfg)
        np.testing.assert_allclose(a.per_sample, b.per_sample, atol=1e-10)

    def test_frozen_batch_loss_decreases_after_one_step(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(16, 5))
        w = rng.normal(size=(4, 5))
        labels = rng.integers(0, 4, size=16)
        deltas = np.linspace(0, 0.15, 4)
        cfg = MarginConfig()
        out = margin_loss(x, labels, w, deltas, cfg)
        lr = 1e-4
        x2 = x - lr * out.grad_embeddings
        w2 = w - lr * out.grad_prototypes
        after, _ = margin_loss_forward(x2, labels, w2, deltas, cfg)
        assert after.total < out.total

    def test_gamma_moves_during_dual_margin_training(self):
        dataset = _small_dataset(seed=8)
        cfg = _fast_config(seed=8, base_lr=0.01)
        _, history = train(cfg, dataset)
        assert history[-1]["gamma"] != 0.0

    def test_ce_mode_trains(self):
        dataset = _small_dataset(seed=9)
        cfg = _fast_config(seed=9, margin=MarginConfig(mode="ce"))
        state, history = train(cfg, dataset)
        assert np.isfinite(history[-1]["train_loss"])

    def test_state_holds_the_first_best_epoch(self):
        # Seed 24's validation recall peaks at epoch 2 and ties at epoch 3,
        # so the state must hold epoch 2's parameters, not the last ones.
        # They are views of one buffer in the training layout, gamma last.
        dataset = _small_dataset(seed=24)
        cfg = _fast_config(seed=24, epochs=4)
        state, history = train(cfg, dataset)
        recalls = [rec["val_macro_recall"] for rec in history]
        k = recalls.index(max(recalls))
        assert k == 2 and recalls[3] == recalls[2]
        best = state.best_prototypes.base
        params = [*state.best_encoder_params.weights, *state.best_encoder_params.biases,
                  state.best_prototypes]
        assert all(a.base is best for a in params)
        assert best.size == sum(a.size for a in params) + 1
        assert state.best_gamma == best[-1] == history[k]["gamma"] != history[-1]["gamma"]
        assert state.best_val_recall == recalls[k] == _validate(
            state.best_encoder_params, state.best_prototypes, dataset, cfg)

    def test_oversampled_run_matches_frozen_losses(self):
        # Frozen oracle: every step oversamples, and two tail classes have
        # a single training sample, so the tail-pool, extra-sample and
        # partner draws all show in the losses. Any change to how they use
        # the RNG stream changes these floats.
        dataset = _small_dataset(seed=12, ratio=80.0)
        cfg = _fast_config(seed=12, epochs=2, oversample_prob=1.0)
        _, history = train(cfg, dataset)
        assert [rec["train_loss"] for rec in history] == [10.097163836161295,
                                                          10.727874120076498]

    def test_random_retention_matches_frozen_oracle(self):
        # Frozen oracle: every step oversamples, perturbs about half of the
        # extra rows and keeps a random subset, so the perturbation mask, the
        # partner and mixing draws and the retention draw all show in every
        # epoch's loss and gamma. The perturbed rows are written into the
        # step's gathered copy, never into the dataset.
        dataset = _small_dataset(seed=13, ratio=80.0)
        features = dataset.features.copy()
        cfg = _fast_config(seed=13, oversample_prob=1.0, selection="random", perturb_prob=0.5)
        _, history = train(cfg, dataset)
        assert [rec["train_loss"] for rec in history] == [
            18.917439937591553, 15.72760534286499, 14.571144580841064]
        assert [rec["gamma"] for rec in history] == [
            -0.0036211194944230055, -0.001529307946651392, -0.0011830500831978524]
        assert np.array_equal(dataset.features, features)

    @pytest.mark.parametrize("seed, overrides, losses, gammas", [
        (16, dict(margin=MarginConfig(mode="am_softmax")),
         [19.23552703857422, 14.539776802062988, 13.070734447903103], [0.0, 0.0, 0.0]),
        (17, dict(margin=MarginConfig(mode="ce")),
         [1.5312286880281236, 1.4163814783096313, 1.4053382873535156], [0.0, 0.0, 0.0]),
        (18, dict(base_lr=0.01, margin=MarginConfig(eq5_sign="magnitude")),
         [3.1640179256598153, 1.8548845851586924, 0.8741792581147618],
         [-0.01247214589077867, -0.0034931728516156215, -0.005485368485225488]),
    ], ids=["am_softmax", "ce", "magnitude"])
    def test_mode_matches_frozen_losses(self, seed, overrides, losses, gammas):
        # Frozen oracles for the modes and sign besides literal dual_margin:
        # am_softmax's zero adjustments, ce's raw dot logits and the
        # magnitude sign each show in every epoch's loss and gamma.
        _, history = train(_fast_config(seed=seed, **overrides), _small_dataset(seed=seed))
        assert [rec["train_loss"] for rec in history] == losses
        assert [rec["gamma"] for rec in history] == gammas

    def test_nan_weight_gradient_names_its_layer(self, monkeypatch):
        # A NaN in the gradient of the second weight matrix at the fifth
        # step; the error names that matrix, not the flat buffer.
        backward, calls = encoder_module.backward, []

        def nan_at_fifth_step(params, cache, grad_embeddings, out, **kwargs):
            param_grads = backward(params, cache, grad_embeddings, out, **kwargs)
            calls.append(1)
            if len(calls) == 5:
                # The trainer reads this through its flat gradient buffer.
                out[1][0][0, 0] = np.nan
            return param_grads

        monkeypatch.setattr(encoder_module, "backward", nan_at_fifth_step)
        cfg = _fast_config(seed=15, hidden_dims=(16, 12))
        with pytest.raises(TrainingDiverged, match=r"'encoder\.weights\[1\]' at epoch 0 step 4") as err:
            train(cfg, _small_dataset(seed=15))
        assert isinstance(err.value, NumericalError)
        snapshot = err.value.snapshot
        assert snapshot["param"] == "encoder.weights[1]"
        assert (snapshot["epoch"], snapshot["step"]) == (0, 4)
        assert snapshot["lr"] == cfg.base_lr
        assert np.isfinite(snapshot["gamma"])

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_row_overflowing_float32_ends_the_run_with_its_snapshot(self):
        # Perturbed rows finite in float64 but not in the float32 batch: the
        # encoder's input check stops the run as a divergence at step 0.
        cfg = _fast_config(seed=3, oversample_prob=1.0, perturb_prob=1.0,
                           perturb_strength=1e300)
        with pytest.raises(TrainingDiverged, match="non-finite input at sample 16 at "
                                                   "epoch 0 step 0") as err:
            train(cfg, _small_dataset(seed=3))
        assert err.value.snapshot == {"epoch": 0, "step": 0, "lr": cfg.base_lr, "gamma": 0.0}

    def test_out_of_range_training_label_rejected_before_training(self):
        # The class statistics check the training labels once per run,
        # before the first step; the message names the bad label.
        dataset = _small_dataset(seed=10)
        dataset.labels[dataset.indices(TRAIN)[3]] = dataset.num_classes + 2
        with pytest.raises(ValueError, match=r"label outside \[0, 5\): 7"):
            train(_fast_config(), dataset)

    def test_no_validation_rows_rejected_before_training(self, tmp_path):
        # The best epoch is chosen on validation; without validation rows
        # the run stops before it opens its logs or takes a step.
        dataset = _small_dataset(seed=10)
        dataset = replace(dataset, split=np.where(dataset.split == VAL, TRAIN, dataset.split))
        plan_path = tmp_path / "plans.jsonl"
        with pytest.raises(ValueError, match="no validation rows"):
            train(_fast_config(), dataset, plan_log_path=str(plan_path))
        assert not plan_path.exists()

    def test_small_training_split_rejected(self):
        dataset = _small_dataset(seed=10, num_classes=2, head_count=6, ratio=1.0)
        cfg = _fast_config(batch_size=512)
        with pytest.raises(ValueError, match="smaller than one batch"):
            train(cfg, dataset)


class _Stop(Exception):
    """Raised by a wrapped kernel to end a run after its first step."""


def _first_step(monkeypatch, cfg, dataset):
    """What the first training step of ``train(cfg, dataset)`` computed: its
    inputs, the activations, the adjusted logits' array (the softmax written
    over them) and the gradients, captured by wrapping the step's kernels
    where ``train`` looks them up. The run stops after that step's backward
    pass, and the kernels are unwrapped."""
    seen = {}
    forward, loss_forward = encoder_module.forward, dualmargin.loss._forward
    margin_loss_, backward = dualmargin.trainer.margin_loss, encoder_module.backward
    lowest = dualmargin.trainer.lowest_norm_indices

    def record_forward(params, features, **kwargs):
        seen["params"], seen["features"] = params, features.copy()
        seen["forward"] = emb, acts = forward(params, features, **kwargs)
        return emb, acts

    def record_keep(norms, keep):
        seen["keep"] = lowest(norms, keep)
        return seen["keep"]

    def record_loss_forward(*args):
        out, ctx = loss_forward(*args)
        seen["adjusted"] = ctx.probs
        return out, ctx

    def record_loss(emb, labels, prototypes, plan, cfg, **kwargs):
        seen["loss_args"] = (emb, labels, prototypes.copy(), plan, replace(cfg))
        seen["loss"] = margin_loss_(emb, labels, prototypes, plan, cfg, **kwargs)
        return seen["loss"]

    def record_backward(params, cache, grad_embeddings, out, **kwargs):
        seen["grads"] = backward(params, cache, grad_embeddings, out, **kwargs)
        raise _Stop

    monkeypatch.setattr(encoder_module, "forward", record_forward)
    monkeypatch.setattr(dualmargin.trainer, "lowest_norm_indices", record_keep)
    monkeypatch.setattr(dualmargin.loss, "_forward", record_loss_forward)
    monkeypatch.setattr(dualmargin.trainer, "margin_loss", record_loss)
    monkeypatch.setattr(encoder_module, "backward", record_backward)
    with pytest.raises(_Stop):
        train(cfg, dataset)
    monkeypatch.undo()
    return seen


# Every step oversamples, so retention runs on the float32 norms.
_PRECISION_CASES = {
    "literal": _fast_config(seed=5, oversample_prob=1.0, hidden_dims=(32, 16)),
    "magnitude": _fast_config(seed=6, oversample_prob=1.0, hidden_dims=(32, 16),
                              margin=MarginConfig(eq5_sign="magnitude", gamma=0.3)),
}


class TestPrecision:
    def test_the_step_computes_in_float32(self, monkeypatch):
        # A float64 operand anywhere in the step (an np.float64 scalar
        # included, under NumPy 2's promotion rules) would turn these float64.
        seen = _first_step(monkeypatch, _PRECISION_CASES["literal"], _small_dataset(seed=5))
        emb, acts = seen["forward"]
        assert [a.dtype for a in acts] == [np.float32] * len(acts)
        assert all(a.dtype == np.float32 for a in seen["params"].weights + seen["params"].biases)
        assert seen["adjusted"].dtype == np.float32
        out = seen["loss"]
        assert out.grad_embeddings.dtype == out.grad_prototypes.dtype == np.float32
        assert isinstance(out.total, float) and isinstance(out.grad_gamma, float)
        grad_buffer = seen["grads"][0][0].base
        assert grad_buffer.dtype == np.float32
        assert all(g.base is grad_buffer for pair in seen["grads"] for g in pair)
        assert out.grad_prototypes.base is grad_buffer

    @pytest.mark.parametrize("sign", sorted(_PRECISION_CASES))
    def test_float32_step_matches_a_float64_shadow(self, monkeypatch, sign):
        # The first step again, from the same parameters and rows, in
        # float64: every gradient agrees within 1e-4 relative. The 1e-5
        # gradient check stays on the float64 entry points.
        cfg = _PRECISION_CASES[sign]
        seen = _first_step(monkeypatch, cfg, _small_dataset(seed=cfg.seed))
        emb32, labels, protos32, plan32, mcfg = seen["loss_args"]
        out32, params32 = seen["loss"], seen["params"]
        params = encoder_module.EncoderParams(
            weights=[w.astype(np.float64) for w in params32.weights],
            biases=[b.astype(np.float64) for b in params32.biases])
        _, cache = encoder_module.forward(params, seen["features"].astype(np.float64))
        cache = [a[seen["keep"]] for a in cache]
        prototypes = protos32.astype(np.float64)
        plan = loss_plan(plan32.deltas.astype(np.float64), mcfg, cfg.batch_size,
                         np.empty_like(prototypes))
        out = margin_loss(cache[-1], labels, prototypes, plan, mcfg)
        grads = encoder_module.backward(params, cache, out.grad_embeddings,
                                        [(np.empty_like(w), np.empty_like(b))
                                         for w, b in zip(params.weights, params.biases)])

        def relative(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        assert relative(emb32, cache[-1]) < 1e-5
        for (dw32, db32), (dw, db) in zip(seen["grads"], grads):
            assert relative(dw32, dw) < 1e-4 and relative(db32, db) < 1e-4
        assert relative(out32.grad_prototypes, out.grad_prototypes) < 1e-4
        assert out.grad_gamma != 0.0
        assert abs(out32.grad_gamma - out.grad_gamma) < 1e-4 * abs(out.grad_gamma)
        assert out32.total == pytest.approx(out.total, rel=1e-5)


class TestValidate:
    @pytest.mark.parametrize("mode", ["dual_margin", "ce"])
    def test_equals_the_per_class_loop(self, mode):
        dataset = _small_dataset(seed=10, num_classes=6)
        # Class 2 gets no validation samples, so it must drop out of the mean.
        assignment = dataset.split.copy()
        assignment[(dataset.labels == 2) & (assignment == VAL)] = TRAIN
        dataset = replace(dataset, split=assignment)
        enc = encoder_module.init_params([6, 16, 8], seed=3)
        prototypes = np.random.default_rng(4).normal(size=(6, 8))
        cfg = _fast_config(margin=MarginConfig(mode=mode))

        val_idx = dataset.indices(VAL)
        labels = dataset.labels[val_idx]
        emb = encoder_module.forward(enc, dataset.features[val_idx])[0]
        if mode == "ce":  # the unblocked formula: one block holds the split
            scores = emb @ prototypes.T
        else:
            scores = rows_normalize(emb)[0] @ rows_normalize(prototypes)[0].T
        preds = np.argmax(scores, axis=1)
        present = np.unique(labels)
        expected = float(np.mean([float(np.mean(preds[labels == j] == j)) for j in present]))
        assert 2 not in present and len(present) == 5
        assert 0.0 < expected < 1.0
        assert _validate(enc, prototypes, dataset, cfg) == expected
        # In a work buffer that held other bytes before, as in training.
        work = np.full(scoring_bytes(enc.dims, 6, val_idx.size, mode != "ce"), 255, np.uint8)
        assert _validate(enc, prototypes, dataset, cfg, work) == expected

    def test_peak_is_the_same_for_two_and_four_blocks(self):
        # Validation holds one block's arrays (the largest block has the same
        # rows in both splits) and per-row vectors, so two more blocks add
        # only their rows' indices, labels, classes and scores: no copy of
        # the split's features and no (rows, classes) matrix, which would
        # add 8 * (32 + 40) bytes a row.
        spec = SyntheticSpec(num_classes=40, dim=32, head_count=150, imbalance_ratio=1.0,
                             seed=11)
        dataset = generate(spec)
        enc = encoder_module.init_params([32, 64, 16], seed=3)
        prototypes = np.random.default_rng(4).normal(size=(40, 16))
        cfg = _fast_config()
        peaks = {}
        for blocks in (2, 4):
            assignment = np.full(len(dataset), TRAIN)
            assignment[:blocks * SCORE_BLOCK_ROWS + 100] = VAL
            split_ds = replace(dataset, split=assignment)
            tracemalloc.start()
            try:
                _validate(enc, prototypes, split_ds, cfg)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] - peaks[2] <= 2 * SCORE_BLOCK_ROWS * 48, peaks


class TestWorkBuffer:
    def test_steps_after_the_first_allocate_no_batch_array(self, monkeypatch):
        # Every step oversamples, perturbs and retains. After the first step
        # (and across the first validation) no step's traced peak reaches
        # one float32 array of the batch by the widest layer: the batch,
        # layer outputs, deltas and loss arrays are views of the work buffer.
        cfg = _fast_config(batch_size=256, oversample_size=32, oversample_prob=1.0,
                           hidden_dims=(256,), embed_dim=16, epochs=2)
        dataset = _small_dataset(seed=12, head_count=400, ratio=20.0)
        plan_batch, peaks, start = dualmargin.trainer.plan_batch, [], [0]

        def measured(*args, **kwargs):  # each step starts with its plan
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - start[0])
            tracemalloc.reset_peak()
            start[0] = current
            return plan_batch(*args, **kwargs)

        monkeypatch.setattr(dualmargin.trainer, "plan_batch", measured)
        tracemalloc.start()
        try:
            _, history = train(cfg, dataset)
        finally:
            tracemalloc.stop()
        assert len(history) == 2 and len(peaks) >= 6
        # peaks[0] is the set-up's, peaks[i] the step's before plan i.
        assert max(peaks[2:]) < cfg.batch_size * 256 * 4, peaks


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        dataset = _small_dataset(seed=11)
        cfg = _fast_config(seed=11, epochs=2)
        state, _ = train(cfg, dataset)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(state, path)
        with open(path) as fh:
            payload = json.load(fh)
        np.testing.assert_array_equal(payload["prototypes"], state.best_prototypes)
        assert payload["gamma"] == state.best_gamma
        assert payload["best_val_recall"] == state.best_val_recall
        for wa, wb in zip(payload["encoder"]["weights"],
                          state.best_encoder_params.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bytes_equal_one_shot_json(self, tmp_path):
        # The row-wise writer produces exactly what json.dumps of the payload
        # with every array as a list gives, NaN included, and leaves no .tmp.
        dataset = _small_dataset(seed=11)
        state, _ = train(_fast_config(seed=11, epochs=1), dataset)
        state.best_val_recall = float("nan")
        state.best_prototypes = state.best_prototypes.copy()
        state.best_prototypes[0, 0] = float("inf")
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(state, path)
        enc, stats = state.best_encoder_params, state.stats
        expected = json.dumps({
            "encoder": {
                "activation": "tanh",
                "weights": [w.tolist() for w in enc.weights],
                "biases": [b.tolist() for b in enc.biases],
            },
            "prototypes": state.best_prototypes.tolist(),
            "gamma": state.best_gamma,
            "epoch": state.epoch,
            "step": state.step,
            "best_val_recall": state.best_val_recall,
            "class_stats": {
                "counts": stats.counts.tolist(),
                "priors": stats.priors.tolist(),
                "effective_numbers": stats.effective_numbers.tolist(),
                "effective_priors": stats.effective_priors.tolist(),
                "deltas": stats.deltas.tolist(),
                "num_classes": stats.num_classes,
            },
        })
        with open(path) as fh:
            written = fh.read()
        assert written == expected
        assert "NaN" in written and "Infinity" in written
        assert os.listdir(tmp_path) == ["ckpt.json"]

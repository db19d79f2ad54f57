"""The helper thread: its hand-off, the split kernels' bits, and its lifetime
in a training run."""

import pathlib
import threading
import time

import numpy as np
import pytest

from dualmargin import encoder, parallel
from dualmargin.cli import EXIT_NUMERICAL, EXIT_OK, main
from dualmargin.loss import MarginConfig, margin_loss
from dualmargin.parallel import SPLIT_WORK, Helper
from dualmargin.trainer import ADAMW_COST, AdamW

RUN_FILES = ("checkpoint.json", "history.jsonl", "plans.jsonl", "metrics.csv",
             "metrics.json", "manifest.json")

# Every kernel of this run's step is over SPLIT_WORK (the smallest are the
# loss's matmuls, 513 x 130 x 37 multiply-adds; the optimizer updates 48,761
# parameters), and no width is a multiple of 8.
SPLIT_CONFIG = """
data.classes = 130
data.dim = 61
data.head_count = 40
data.imbalance_ratio = 4
train.epochs = 2
train.batch_size = 513
train.oversample_prob = 0.5
train.hidden_dims = 253,97
train.embed_dim = 37
partition.head_threshold = 30
partition.tail_threshold = 15
"""


@pytest.fixture
def helper():
    h = Helper()
    yield h
    h.close()


class TestHelper:
    def test_runs_the_call_and_waits_for_it(self, helper):
        out = np.zeros(3)
        helper.run(np.add, np.ones(3), 2.0, out)
        helper.wait()
        assert np.array_equal(out, [3.0, 3.0, 3.0])

    def test_wait_raises_the_call_s_exception_and_the_thread_lives_on(self, helper):
        def fail():
            raise ValueError("in the helper")

        helper.run(fail)
        with pytest.raises(ValueError, match="in the helper"):
            helper.wait()
        out = np.zeros(1)
        helper.run(np.copyto, out, 5.0)
        helper.wait()
        assert out[0] == 5.0

    def test_wait_makes_the_call_itself_when_the_thread_has_not_started(self):
        # A thread whose CPU does not run it yet: the caller does not wait.
        gate = threading.Event()

        class Stalled(Helper):
            def _loop(self):
                gate.wait(timeout=10)
                super()._loop()

        h, ran_on = Stalled(), []
        try:
            h.run(lambda: ran_on.append(threading.get_ident()))
            h.wait()
            assert ran_on == [threading.get_ident()]
        finally:
            gate.set()
            h.close()

    def test_close_joins_the_thread_even_with_a_call_running(self):
        before = threading.active_count()
        h = Helper()
        assert threading.active_count() == before  # the thread starts at the first run
        started, finished = threading.Event(), []

        def slow():
            started.set()
            time.sleep(0.05)
            finished.append(True)

        h.run(slow)
        assert threading.active_count() == before + 1
        assert started.wait(timeout=10)
        h.close()  # no wait() first: close lets slow() finish, then stops the thread
        assert finished == [True]
        assert threading.active_count() == before

    def test_start_helper_needs_two_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert parallel.start_helper() is None
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        h = parallel.start_helper()
        assert isinstance(h, Helper)
        h.close()


def _params(dims, seed):
    params = encoder.init_params(dims, seed=seed)
    rng = np.random.default_rng(seed)
    for b in params.biases:
        b[:] = rng.normal(size=b.shape)
    return params


def _buffers(params):
    return [(np.full_like(w, np.nan), np.full_like(b, np.nan))
            for w, b in zip(params.weights, params.biases)]


# Widths as in wide_batch, and widths that are not multiples of 8.
DIMS = ([64, 256, 128, 64], [61, 253, 131, 37])


class TestSplitKernelsChangeNoBits:
    @pytest.mark.parametrize("rows", [511, 512, 513])
    @pytest.mark.parametrize("dims", DIMS)
    def test_encoder_forward_and_backward(self, helper, rows, dims):
        params = _params(dims, seed=rows)
        x = np.random.default_rng(rows).normal(size=(rows, dims[0]))
        g = np.random.default_rng(rows + 1).normal(size=(rows, dims[-1]))
        assert all(rows * w.size >= SPLIT_WORK for w in params.weights)

        _, serial = encoder.forward(params, x)
        serial_grads = encoder.backward(params, serial, g, _buffers(params))
        for _ in range(2):  # the first split of a shape is checked, later ones trusted
            _, split = encoder.forward(params, x, helper=helper)
            split_grads = encoder.backward(params, split, g, _buffers(params), helper=helper)
            assert all(np.array_equal(a, b) for a, b in zip(serial, split))
            for (dw, db), (sdw, sdb) in zip(serial_grads, split_grads):
                assert np.array_equal(dw, sdw) and np.array_equal(db, sdb)
        assert list(helper.exact) == [("encoder.forward", rows, *dims)]

    def test_forward_falls_back_where_the_halves_differ(self):
        # A helper whose half of the embeddings comes out one ulp off: the
        # shape is found inexact once, and then computed whole.
        class OffByOneUlp(Helper):
            calls = 0

            def run(self, fn, *args):
                def off(params, x, outs):
                    fn(params, x, outs)
                    np.nextafter(outs[-1], np.inf, out=outs[-1])
                OffByOneUlp.calls += 1
                super().run(off, *args)

        params = _params([61, 253, 131, 37], seed=3)
        x = np.random.default_rng(3).normal(size=(512, 61))
        _, serial = encoder.forward(params, x)
        h = OffByOneUlp()
        try:
            for _ in range(2):
                _, split = encoder.forward(params, x, helper=h)
                assert all(np.array_equal(a, b) for a, b in zip(serial, split))
            assert list(h.exact.values()) == [False]
            assert OffByOneUlp.calls == 1  # not split a second time
        finally:
            h.close()

    @pytest.mark.parametrize("rows", [511, 512, 513])
    @pytest.mark.parametrize("mode", ["dual_margin", "ce"])
    def test_loss_gradients(self, helper, rows, mode):
        rng = np.random.default_rng(rows)
        classes, dim = 130, 37
        assert rows * classes * dim >= SPLIT_WORK
        emb = rng.normal(size=(rows, dim))
        protos = rng.normal(size=(classes, dim))
        labels = rng.integers(0, classes, size=rows)
        deltas = rng.uniform(0.0, 0.15, size=classes)
        cfg = MarginConfig(mode=mode, gamma=0.3)
        serial = margin_loss(emb, labels, protos, deltas, cfg)
        split = margin_loss(emb, labels, protos, deltas, cfg, helper=helper)
        assert split.total == serial.total
        assert np.array_equal(split.per_sample, serial.per_sample)
        assert split.grad_gamma == serial.grad_gamma
        assert np.array_equal(split.grad_embeddings, serial.grad_embeddings)
        assert np.array_equal(split.grad_prototypes, serial.grad_prototypes)

    @pytest.mark.parametrize("size", [70593, 42001])
    def test_adamw_after_50_steps(self, helper, size):
        assert size * ADAMW_COST >= SPLIT_WORK
        rng = np.random.default_rng(size)
        p0 = rng.normal(size=size)
        serial, split = AdamW(weight_decay=0.3), AdamW(weight_decay=0.3, helper=helper)
        ps, pt = {"flat": p0.copy()}, {"flat": p0.copy()}
        for t in range(1, 51):
            g = {"flat": rng.normal(size=size)}
            serial.step(ps, g, lr=0.1 / t)
            split.step(pt, g, lr=0.1 / t)
        assert np.array_equal(ps["flat"], pt["flat"])
        assert np.array_equal(serial.m["flat"], split.m["flat"])
        assert np.array_equal(serial.v["flat"], split.v["flat"])


def _train(tmp_path, name, text=SPLIT_CONFIG):
    config = tmp_path / f"{name}.ini"
    config.write_text(text)
    out = tmp_path / name
    return main(["train", "--config", str(config), "--out", str(out)]), out


class TestTrainRunsOneHelper:
    @pytest.fixture
    def record(self, monkeypatch):
        """Threads alive after each forward pass of a run, and its split calls."""
        seen = {"threads": set(), "splits": 0}
        forward, run = encoder.forward, Helper.run

        def counting_forward(*args, **kwargs):
            result = forward(*args, **kwargs)
            seen["threads"].add(threading.active_count())
            return result

        def counting_run(self, fn, *args):
            seen["splits"] += 1
            run(self, fn, *args)

        monkeypatch.setattr(encoder, "forward", counting_forward)
        monkeypatch.setattr(Helper, "run", counting_run)
        return seen

    def test_threaded_run_equals_one_cpu_run_byte_for_byte(self, tmp_path, monkeypatch,
                                                          record):
        before = threading.active_count()
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert _train(tmp_path, "one")[0] == EXIT_OK
        assert record["threads"] == {before} and record["splits"] == 0
        assert threading.active_count() == before

        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        code, out = _train(tmp_path, "two")
        assert code == EXIT_OK
        assert {before + 1} <= record["threads"] <= {before, before + 1}
        assert record["splits"] > 0
        assert threading.active_count() == before
        for name in RUN_FILES:
            assert (out / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

    def test_diverged_run_stops_its_helper(self, tmp_path, monkeypatch, record):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        before = threading.active_count()
        code, out = _train(tmp_path, "bad", SPLIT_CONFIG + "margin.s = 1e200\n")
        assert code == EXIT_NUMERICAL
        assert pathlib.Path(out, "error.json").exists()
        assert record["threads"] == {before + 1}
        assert threading.active_count() == before

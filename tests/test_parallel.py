"""The helper thread: its hand-off, its CPU apart from the caller's, the one
place that chooses whether a kernel splits, where each kernel splits, the
split kernels' bits on one CPU and two, and its lifetime in a training
run."""

import ast
import json
import os
import pathlib
import threading
import time

import numpy as np
import pytest

from dualmargin import encoder, parallel
from dualmargin.cli import EXIT_NUMERICAL, EXIT_OK, main
from dualmargin.loss import MarginConfig, margin_loss, margin_loss_forward
from dualmargin.parallel import SPLIT_WORK, Helper, halves, pair
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

# One step whose encoder has output widths (253, 131, 37) at 512 rows: on an
# AVX-512 host with OpenBLAS 0.3.31, the row halves of its first layer have
# other bits than the whole product.
HALVES_DIFFER_CONFIG = """
data.dim = 61
train.hidden_dims = 253,131
train.embed_dim = 37
data.classes = 130
train.batch_size = 512
train.epochs = 1
"""


@pytest.fixture
def make_helper(monkeypatch):
    """Helpers made as on a host with the given number of usable CPUs."""
    made = []

    def make(cpus):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        made.append(Helper())
        return made[-1]

    yield make
    for h in made:
        h.close()


@pytest.fixture
def helper(make_helper):
    return make_helper(2)


@pytest.fixture
def one_cpu(make_helper):
    return make_helper(1)


@pytest.fixture
def hand_offs(monkeypatch):
    """The number of ``Helper.both`` calls made since the test began."""
    seen, both = [0], Helper.both

    def counting_both(self, *args):
        seen[0] += 1
        return both(self, *args)

    monkeypatch.setattr(Helper, "both", counting_both)
    return seen


class Affinity:
    """``os.sched_getaffinity`` and ``os.sched_setaffinity`` on a recorded host:
    each id's mask (0, the calling thread, starts with the host's), every
    ``sched_setaffinity`` call in order, and, with ``refuse``, an ``OSError``
    from each of them that changes no mask."""

    def __init__(self, cpus, refuse=False):
        self.masks, self.calls, self.refuse = {0: set(cpus)}, [], refuse

    def get(self, pid):
        return set(self.masks.get(pid, self.masks[0]))

    def set(self, pid, cpus):
        self.calls.append((pid, set(cpus)))
        if self.refuse:
            raise OSError("sched_setaffinity refused")
        self.masks[pid] = set(cpus)


@pytest.fixture
def affinity(monkeypatch):
    """Installs an ``Affinity`` of the given CPUs in ``os``."""
    def install(cpus, refuse=False):
        host = Affinity(cpus, refuse)
        monkeypatch.setattr(os, "sched_getaffinity", host.get, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", host.set, raising=False)
        return host

    return install


class TestHelper:
    def test_runs_the_call_and_waits_for_it(self, helper):
        out = np.zeros(3)
        assert helper.both(np.add, (np.ones(3), 2.0, out), int, ("7",)) == 7
        assert np.array_equal(out, [3.0, 3.0, 3.0])

    def test_both_raises_the_helper_s_exception_and_the_thread_lives_on(self, helper):
        def fail():
            raise ValueError("in the helper")

        with pytest.raises(ValueError, match="in the helper"):
            helper.both(fail, (), int, ())
        out = np.zeros(1)
        helper.both(np.copyto, (out, 5.0), int, ())
        assert out[0] == 5.0

    def test_both_makes_the_call_itself_when_the_thread_has_not_started(self, monkeypatch):
        # A thread whose CPU does not run it yet: the caller does not wait.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        gate = threading.Event()

        class Stalled(Helper):
            def _loop(self):
                gate.wait(timeout=10)
                super()._loop()

        h, ran_on = Stalled(), []
        try:
            h.both(lambda: ran_on.append(threading.get_ident()), (), int, ())
            assert ran_on == [threading.get_ident()]
        finally:
            gate.set()
            h.close()

    def test_caller_s_exception_waits_for_the_helper_and_close_joins_at_once(
            self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        before = threading.active_count()
        h = Helper()
        assert threading.active_count() == before  # the thread starts at the first both
        started, finished = threading.Event(), []

        def slow():
            started.set()
            time.sleep(0.05)
            finished.append(True)

        def fail():
            assert started.wait(timeout=10)
            assert threading.active_count() == before + 1
            raise ValueError("in the caller")

        with pytest.raises(ValueError, match="in the caller"):
            h.both(slow, (), fail, ())
        assert finished == [True]  # both returned only after slow() had
        h.close()
        assert threading.active_count() == before

    def test_caller_s_exception_on_one_cpu_never_runs_the_handed_off_call(self, one_cpu):
        before, ran = threading.active_count(), []

        def fail():
            raise ValueError("in the caller")

        with pytest.raises(ValueError, match="in the caller"):
            one_cpu.both(ran.append, ("first",), fail, ())
        assert ran == [] and threading.active_count() == before
        assert one_cpu.both(ran.append, ("next",), int, ("3",)) == 3
        assert ran == ["next"]

    def test_one_cpu_makes_both_halves_here_and_starts_no_thread(self, affinity):
        host = affinity({3})
        before = threading.active_count()
        h, ran_on = Helper(), []

        def record(half):
            ran_on.append((half, threading.get_ident()))

        h.both(record, ("first",), record, ("second",))
        h.close()
        assert sorted(ran_on) == [("first", threading.get_ident()),
                                  ("second", threading.get_ident())]
        assert threading.active_count() == before
        assert host.calls == []  # a one-CPU mask pins nothing


class TestPinning:
    """The thread runs on a CPU of its own, apart from the caller's, from its
    start until ``close``, which gives the caller back its mask."""

    @pytest.mark.parametrize("cpus, alone", [({0, 1}, 1), ({0, 2, 5, 7}, 7)])
    def test_first_split_pins_the_helper_to_one_cpu_and_the_caller_to_the_rest(
            self, affinity, cpus, alone):
        host = affinity(cpus)
        h = Helper()
        assert host.calls == []
        h.both(int, (), int, ())
        tid = h._thread.native_id
        assert host.calls == [(tid, {alone}), (0, cpus - {alone})]
        h.both(int, (), int, ())
        assert len(host.calls) == 2  # pinned once, at the thread's start
        h.close()
        assert host.calls[2:] == [(0, cpus)] and host.masks[0] == cpus

    def test_refused_or_missing_affinity_leaves_both_unpinned(self, affinity, monkeypatch):
        host = affinity({0, 1}, refuse=True)
        h = Helper()
        out = np.zeros(1)
        h.both(np.copyto, (out, 5.0), int, ())
        h.close()
        assert out[0] == 5.0 and host.masks == {0: {0, 1}} and len(host.calls) == 1

        monkeypatch.delattr(os, "sched_setaffinity")
        h = Helper()
        h.both(np.copyto, (out, 6.0), int, ())
        h.close()
        assert out[0] == 6.0 and h._thread is not None

    def test_default_size_train_never_pins(self, tmp_path, affinity, hand_offs):
        host = affinity({0, 1})
        assert _train(tmp_path, "default", "train.epochs = 1\n")[0] == EXIT_OK
        assert hand_offs[0] == 0 and host.calls == []

    def test_split_run_restores_the_caller_s_mask(self, tmp_path, affinity):
        host = affinity({0, 1})
        assert _train(tmp_path, "split")[0] == EXIT_OK
        assert [cpus for _, cpus in host.calls] == [{1}, {0}, {0, 1}]
        assert host.masks[0] == {0, 1}

    def test_refused_pinning_run_equals_one_cpu_run_byte_for_byte(self, tmp_path, affinity):
        host = affinity({0}, refuse=True)
        assert _train(tmp_path, "one")[0] == EXIT_OK
        host = affinity({0, 1}, refuse=True)
        code, out = _train(tmp_path, "refused")
        assert code == EXIT_OK and len(host.calls) == 1 and host.masks == {0: {0, 1}}
        for file in RUN_FILES:
            assert (out / file).read_bytes() == (tmp_path / "one" / file).read_bytes(), file

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    def test_pins_apart_on_this_host_and_restores_the_mask(self):
        before = os.sched_getaffinity(0)
        h = Helper()
        try:
            h.both(int, (), int, ())
            alone, caller = os.sched_getaffinity(h._thread.native_id), os.sched_getaffinity(0)
            assert len(alone) == 1 and not alone & caller and alone | caller == before
        finally:
            h.close()
        assert os.sched_getaffinity(0) == before


def _record(calls):
    def fn(*args):
        calls.append((threading.get_ident(), args))
        return len(calls)
    return fn


class TestOneChoice:
    """``halves`` and ``pair`` alone choose between the whole call and its
    parts, and no other module knows the rule."""

    @pytest.mark.parametrize("with_helper, work", [(False, SPLIT_WORK), (True, SPLIT_WORK - 1)])
    def test_below_the_rule_halves_makes_one_whole_call(self, helper, hand_offs, with_helper,
                                                        work):
        rows, calls = np.arange(6.0), []
        halves(helper if with_helper else None, work, _record(calls), (rows, [rows]), "shared")
        assert hand_offs[0] == 0 and len(calls) == 1
        ident, (whole, (listed,), shared) = calls[0]
        assert ident == threading.get_ident() and shared == "shared"
        assert whole is rows and listed is rows

    @pytest.mark.parametrize("list_first", [False, True])
    def test_at_the_rule_halves_makes_two_calls_on_the_halves(self, helper, hand_offs,
                                                              list_first):
        # The split is at half the first array's rows, also where it is in a list.
        rows, calls = np.arange(7.0), []
        entries = ([rows], rows) if list_first else (rows, [rows])
        halves(helper, SPLIT_WORK, _record(calls), entries, "shared")
        assert hand_offs[0] == 1
        parts = sorted((tuple(np.concatenate([np.ravel(a), np.ravel(b)])), shared)
                       for _, (a, b, shared) in calls)
        assert parts == [((0.0, 1.0, 2.0) * 2, "shared"), ((3.0, 4.0, 5.0, 6.0) * 2, "shared")]

    @pytest.mark.parametrize("with_helper, work", [(False, SPLIT_WORK), (True, SPLIT_WORK - 1)])
    def test_below_the_rule_pair_makes_both_calls_here_in_order(self, helper, hand_offs,
                                                                with_helper, work):
        calls = []
        fn = _record(calls)
        assert pair(helper if with_helper else None, work, fn, ("first",), fn, ("second",)) == 2
        assert hand_offs[0] == 0
        assert calls == [(threading.get_ident(), ("first",)),
                         (threading.get_ident(), ("second",))]

    def test_no_other_module_knows_the_rule(self):
        package = pathlib.Path(parallel.__file__).parent
        for path in sorted(package.glob("*.py")):
            if path.name == "parallel.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                assert not (isinstance(node, ast.Name) and node.id == "SPLIT_WORK"), path.name
                assert not (isinstance(node, ast.alias) and node.name == "SPLIT_WORK"), path.name
                assert not (isinstance(node, ast.Attribute)
                            and node.attr in ("both", "SPLIT_WORK")), path.name


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


class TestEverySiteSplitsAtSplitWork:
    """Each shared kernel hands off one part at SPLIT_WORK multiply-adds and
    none one unit of work (a row, or an element) below it."""

    @pytest.mark.parametrize("rows, expected", [(511, 0), (512, 1)])
    def test_encoder_forward(self, helper, hand_offs, rows, expected):
        params = _params([16, 64, 16], seed=0)  # 2,048 multiply-adds a row
        encoder.forward(params, np.ones((rows, 16)), helper=helper)
        assert hand_offs[0] == expected

    @pytest.mark.parametrize("rows, expected", [(1023, 0), (1024, 1)])
    def test_encoder_backward(self, helper, hand_offs, rows, expected):
        # The top layer's dW is 1,024 multiply-adds a row; the first layer's
        # dW has nothing to run beside.
        params = _params([16, 64, 16], seed=0)
        _, acts = encoder.forward(params, np.ones((rows, 16)))
        encoder.backward(params, acts, np.ones((rows, 16)), _buffers(params), helper=helper)
        assert hand_offs[0] == expected

    @pytest.mark.parametrize("rows, expected", [(1023, 0), (1024, 3)])
    def test_loss(self, helper, hand_offs, rows, expected):
        # 64 classes of width 16: the logits and each gradient matmul are
        # 1,024 multiply-adds a row, and the softmax splits with the logits.
        rng = np.random.default_rng(rows)
        margin_loss(rng.normal(size=(rows, 16)), rng.integers(0, 64, size=rows),
                    rng.normal(size=(64, 16)), np.zeros(64), MarginConfig(), helper=helper)
        assert hand_offs[0] == expected

    @pytest.mark.parametrize("size, expected", [(41943, 0), (41944, 1)])
    def test_adamw(self, helper, hand_offs, size, expected):
        assert 41943 * ADAMW_COST < SPLIT_WORK <= 41944 * ADAMW_COST
        AdamW(helper=helper).step({"flat": np.ones(size)}, {"flat": np.ones(size)}, lr=0.1)
        assert hand_offs[0] == expected


class TestSplitIsWholeCallsOnHalves:
    """A split kernel's bits are those of whole calls, made without a helper,
    on each row half: the split itself is checked, not only its two CPU
    counts against each other."""

    @pytest.mark.parametrize("rows", [511, 512, 513])
    @pytest.mark.parametrize("dims", DIMS)
    def test_encoder_forward(self, helper, rows, dims):
        params = _params(dims, seed=rows)
        x = np.random.default_rng(rows).normal(size=(rows, dims[0]))
        assert rows * sum(w.size for w in params.weights) >= SPLIT_WORK
        _, split = encoder.forward(params, x, helper=helper)
        h = rows // 2
        for part, rows_of in ((encoder.forward(params, x[:h])[1], slice(None, h)),
                              (encoder.forward(params, x[h:])[1], slice(h, None))):
            assert all(np.array_equal(a[rows_of], b) for a, b in zip(split, part))

    @pytest.mark.parametrize("rows", [511, 512, 513])
    @pytest.mark.parametrize("mode", ["dual_margin", "ce"])
    def test_loss_per_sample(self, helper, rows, mode):
        rng = np.random.default_rng(rows)
        classes, dim = 130, 37
        assert rows * classes * dim >= SPLIT_WORK
        emb = rng.normal(size=(rows, dim))
        protos = rng.normal(size=(classes, dim))
        labels = rng.integers(0, classes, size=rows)
        deltas = rng.uniform(0.0, 0.15, size=classes)
        cfg = MarginConfig(mode=mode, gamma=0.3)
        split = margin_loss(emb, labels, protos, deltas, cfg, helper=helper)
        h = rows // 2
        first, _ = margin_loss_forward(emb[:h], labels[:h], protos, deltas, cfg)
        second, _ = margin_loss_forward(emb[h:], labels[h:], protos, deltas, cfg)
        assert np.array_equal(split.per_sample, np.concatenate([first.per_sample,
                                                                second.per_sample]))


class TestSplitKernelsChangeNoBits:
    """A threaded helper against a thread-less one: the same halves, the same bits."""

    @pytest.mark.parametrize("rows", [511, 512, 513])
    @pytest.mark.parametrize("dims", DIMS)
    def test_encoder_forward_and_backward(self, helper, one_cpu, rows, dims):
        params = _params(dims, seed=rows)
        x = np.random.default_rng(rows).normal(size=(rows, dims[0]))
        g = np.random.default_rng(rows + 1).normal(size=(rows, dims[-1]))
        assert all(rows * w.size >= SPLIT_WORK for w in params.weights)

        _, serial = encoder.forward(params, x, helper=one_cpu)
        serial_grads = encoder.backward(params, serial, g, _buffers(params), helper=one_cpu)
        _, split = encoder.forward(params, x, helper=helper)
        split_grads = encoder.backward(params, split, g, _buffers(params), helper=helper)
        assert all(np.array_equal(a, b) for a, b in zip(serial, split))
        for (dw, db), (sdw, sdb) in zip(serial_grads, split_grads):
            assert np.array_equal(dw, sdw) and np.array_equal(db, sdb)

    @pytest.mark.parametrize("rows", [511, 512, 513])
    @pytest.mark.parametrize("mode", ["dual_margin", "ce"])
    def test_loss_gradients(self, helper, one_cpu, rows, mode):
        rng = np.random.default_rng(rows)
        classes, dim = 130, 37
        assert rows * classes * dim >= SPLIT_WORK
        emb = rng.normal(size=(rows, dim))
        protos = rng.normal(size=(classes, dim))
        labels = rng.integers(0, classes, size=rows)
        deltas = rng.uniform(0.0, 0.15, size=classes)
        cfg = MarginConfig(mode=mode, gamma=0.3)
        serial = margin_loss(emb, labels, protos, deltas, cfg, helper=one_cpu)
        split = margin_loss(emb, labels, protos, deltas, cfg, helper=helper)
        assert split.total == serial.total
        assert np.array_equal(split.per_sample, serial.per_sample)
        assert split.grad_gamma == serial.grad_gamma
        assert np.array_equal(split.grad_embeddings, serial.grad_embeddings)
        assert np.array_equal(split.grad_prototypes, serial.grad_prototypes)

    @pytest.mark.parametrize("size", [70593, 42001])
    def test_adamw_after_50_steps(self, helper, one_cpu, size):
        # The update is elementwise, so its halves equal the whole update too.
        assert size * ADAMW_COST >= SPLIT_WORK
        rng = np.random.default_rng(size)
        p0 = rng.normal(size=size)
        opts = [AdamW(weight_decay=0.3), AdamW(weight_decay=0.3, helper=one_cpu),
                AdamW(weight_decay=0.3, helper=helper)]
        params = [{"flat": p0.copy()} for _ in opts]
        for t in range(1, 51):
            g = {"flat": rng.normal(size=size)}
            for opt, p in zip(opts, params):
                opt.step(p, g, lr=0.1 / t)
        (whole, pw), *halves = zip(opts, params)
        for opt, p in halves:
            assert np.array_equal(pw["flat"], p["flat"])
            assert np.array_equal(whole.m["flat"], opt.m["flat"])
            assert np.array_equal(whole.v["flat"], opt.v["flat"])


def _train(tmp_path, name, text=SPLIT_CONFIG):
    config = tmp_path / f"{name}.ini"
    config.write_text(text)
    out = tmp_path / name
    return main(["train", "--config", str(config), "--out", str(out)]), out


class TestTrainRunsOneHelper:
    @pytest.fixture
    def threads(self, monkeypatch):
        """Threads alive after each forward pass of a run."""
        seen, forward = set(), encoder.forward

        def counting_forward(*args, **kwargs):
            result = forward(*args, **kwargs)
            seen.add(threading.active_count())
            return result

        monkeypatch.setattr(encoder, "forward", counting_forward)
        return seen

    def test_threaded_run_equals_one_cpu_run_byte_for_byte(self, tmp_path, monkeypatch,
                                                          threads, hand_offs):
        # Each run splits its kernels into the same halves on one CPU and two.
        before = threading.active_count()
        for name, text in (("split", SPLIT_CONFIG), ("halves_differ", HALVES_DIFFER_CONFIG)):
            threads.clear()
            hand_offs[0] = 0
            monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
            assert _train(tmp_path, f"{name}_one", text)[0] == EXIT_OK
            assert threads == {before} and hand_offs[0] > 0
            assert threading.active_count() == before

            monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
            code, out = _train(tmp_path, f"{name}_two", text)
            assert code == EXIT_OK
            assert {before + 1} <= threads <= {before, before + 1}
            assert threading.active_count() == before
            for file in RUN_FILES:
                one = tmp_path / f"{name}_one" / file
                assert (out / file).read_bytes() == one.read_bytes(), (name, file)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_the_helper_s_half_ends_the_run_as_a_divergence(
            self, tmp_path, monkeypatch, affinity):
        # errstate is thread-local, so the helper enters train's own: a float32
        # overflow in its row half of the encoder's layers raises there, and
        # the run ends as a divergence, not with a warning or an inf.
        affinity({0, 1})
        layers, on_helper = encoder._layers, []

        def overflow_on_the_helper(activations, params):
            if threading.current_thread().name == "dualmargin-helper":
                on_helper.append(True)
                activations[0] *= np.float32(3e38)  # the step's float32 copy of the rows
            layers(activations, params)

        monkeypatch.setattr(encoder, "_layers", overflow_on_the_helper)
        code, out = _train(tmp_path, "helper_overflow")
        assert code == EXIT_NUMERICAL and on_helper
        payload = json.loads((out / "error.json").read_text())
        assert payload["snapshot"]["stage"] == "encoder"
        assert "overflow encountered in multiply" in payload["error"]

    def test_diverged_run_stops_its_helper(self, tmp_path, affinity, threads):
        host = affinity({0, 1})
        before = threading.active_count()
        code, out = _train(tmp_path, "bad", SPLIT_CONFIG + "margin.s = 1e200\n")
        assert code == EXIT_NUMERICAL
        assert pathlib.Path(out, "error.json").exists()
        assert threads == {before + 1}
        assert threading.active_count() == before
        assert [cpus for _, cpus in host.calls] == [{1}, {0}, {0, 1}]  # mask restored

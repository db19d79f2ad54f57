"""One helper thread that runs a NumPy kernel beside the calling thread.

``train`` makes one ``Helper`` and passes it to the step's kernels: the
encoder's forward and backward passes, the loss's forward and backward
passes and ``AdamW.step``. Each makes one call, to ``halves`` (a kernel
over rows) or ``pair`` (two independent kernels), and those two alone
choose, by one rule, whether it is computed whole or as two parts at once
(``Helper.both``): its row halves, which only ``halves`` slices, or the two
calls. The kernels write into outputs their caller made. NumPy releases
the interpreter lock inside its kernels, so the parts can run at once, on
disjoint outputs; the helper is pinned to a CPU apart from its caller's so
that they do (unpinned, the scheduler woke it on the caller's CPU, where it
ran its part before the caller's, not beside it). BLAS stays on one thread
in each. The parts, and so a run's bits, are the same on any CPU count; a
halved kernel's bits are its halves', which a BLAS may make differ from
the whole's.

The rule: a kernel is shared only given a helper and work of at least
``SPLIT_WORK`` multiply-adds. Below that the hand-off, about 22 µs of lock
ping-pong on a 2-CPU host, and the second core's cache misses cost more
than half the kernel saves; the default 32-row step is far below it and
shares none.

The helper runs only NumPy functions and its callers' private kernels,
never a public function of the package, which a profiler may wrap with
state that is not thread-safe.
"""

from __future__ import annotations

import os
import threading

# With the helper pinned, a 16-to-64 float32 tanh layer in row halves broke
# even at about 2^19.7 multiply-adds (860 rows) and ran 1.1x as fast at 2^20;
# AdamW broke even at 33,000-37,000 elements, 2^19.7-2^19.8 in these units,
# and ran 1.75-1.9x as fast at 70,593 (two runs). Unpinned, both were still
# slower split, the layer at 2^20 and AdamW at 70,593 (CHANGES.md).
SPLIT_WORK = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Helper:
    """A daemon thread that runs one handed-off call at a time.

    Two locks carry the hand-off in ``both``: the caller stores the call and
    releases ``_go``, which the thread waits on; the thread releases
    ``_done`` when the call returns. If the thread has not taken ``_go`` by
    the time the caller's own part has returned (on a busy host its CPU may
    not run for milliseconds), the caller takes it back and makes the call
    itself, so it never waits for a thread that has not started. The thread
    starts at the first ``both``, so a run that shares no kernel stays a
    single-threaded process, and only where two or more CPUs are usable;
    with fewer, the caller makes every call. As it starts, the thread is
    pinned to the highest CPU of the caller's affinity mask and the caller
    to the rest; where the OS lacks or refuses that, both run unpinned.
    ``close`` stops and joins the thread and restores the caller's mask.
    """

    def __init__(self) -> None:
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task: tuple | None = None
        self._error: Exception | None = None
        self._threaded = usable_cpus() >= 2
        self._thread: threading.Thread | None = None
        self._mask: set[int] | None = None  # the caller's CPUs while it is pinned

    def _loop(self) -> None:
        while True:
            self._go.acquire()
            if self._task is None:
                return
            fn, args = self._task
            try:
                fn(*args)
            except Exception as exc:  # raised again in the caller's thread by both()
                self._error = exc
            finally:
                self._done.release()

    def both(self, fn1, args1: tuple, fn2, args2: tuple):
        """``fn1(*args1)`` on the helper thread and ``fn2(*args2)`` here, at once;
        return ``fn2``'s result once both have returned, or raise either's
        exception. Whether it returns or raises, no handed-off call is still
        running. If ``fn2`` raises and ``fn1`` was not taken by the thread
        (one CPU, or a take-back), ``fn1`` is never run."""
        if self._thread is None and self._threaded:
            self._thread = threading.Thread(target=self._loop, name="dualmargin-helper",
                                            daemon=True)
            self._thread.start()
            self._pin_apart()
        self._task = (fn1, args1)
        self._go.release()
        try:
            result = fn2(*args2)
        finally:
            taken_back = self._go.acquire(blocking=False)
            if not taken_back:
                self._done.acquire()
            error, self._error = self._error, None
        if taken_back:
            fn1(*args1)
        elif error is not None:
            raise error
        return result

    def _pin_apart(self) -> None:
        """Pin the thread to the caller's highest CPU and the caller to the rest."""
        try:
            mask = os.sched_getaffinity(0)  # pid 0: the calling thread, on Linux
            cpu = max(mask)
            os.sched_setaffinity(self._thread.native_id, {cpu})
            os.sched_setaffinity(0, mask - {cpu})
            self._mask = mask
        except (AttributeError, OSError):
            pass

    def close(self) -> None:
        """Stop and join the thread, then give the caller back its own mask."""
        if self._thread is None:
            return
        self._task = None
        self._go.release()
        self._thread.join()
        if self._mask is not None:
            os.sched_setaffinity(0, self._mask)


def halves(helper: Helper | None, work: int, fn, rows: tuple | list, *shared) -> None:
    """``fn(*rows, *shared)``, as one call, or as two calls at once, the first
    on the helper, when there is a ``helper`` and the kernel's ``work``, in
    multiply-adds, is at least ``SPLIT_WORK``. Each of the two takes one row
    half of every entry of ``rows`` (an array, or a list of arrays sliced
    alike), split at half the rows of the first array, and all of
    ``shared``."""
    if helper is None or work < SPLIT_WORK:
        fn(*rows, *shared)
        return
    h = len(rows[0][0] if isinstance(rows[0], list) else rows[0]) // 2
    first = [[a[:h] for a in r] if isinstance(r, list) else r[:h] for r in rows]
    second = [[a[h:] for a in r] if isinstance(r, list) else r[h:] for r in rows]
    helper.both(fn, (*first, *shared), fn, (*second, *shared))


def pair(helper: Helper | None, work: int, fn1, args1: tuple, fn2, args2: tuple):
    """``fn1(*args1)`` and then ``fn2(*args2)``, two independent calls, or the
    two at once (``Helper.both``) under the rule of ``halves``, with ``work``
    the multiply-adds of each; ``fn2``'s result."""
    if helper is None or work < SPLIT_WORK:
        fn1(*args1)
        return fn2(*args2)
    return helper.both(fn1, args1, fn2, args2)

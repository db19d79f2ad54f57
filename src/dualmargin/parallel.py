"""One helper thread that runs a NumPy kernel beside the calling thread.

On a host with two or more usable CPUs, ``train`` makes one ``Helper``
and passes it to the step's kernels: the encoder's forward and backward
passes, the loss's forward and backward passes and ``AdamW.step``. Each
hands the helper one call (``run``), makes an independent call itself,
then waits for the helper, or makes the handed-off call too if the helper
has not started it (``wait``). NumPy releases the interpreter lock
inside its kernels, so the two calls run at once, on disjoint outputs.
BLAS stays on one thread in each. A run's bits do not depend on the
helper: each output element is computed by the same calls as in the
serial form, or, for a BLAS product split by rows, checked against it
(``Helper.split``).

A kernel is split only when its work is at least ``SPLIT_WORK``
multiply-adds. Below that the hand-off, about 22 µs of lock ping-pong on
a 2-CPU host, and the second core's cache misses cost more than half the
kernel saves; the default 32-row step is far below it and never splits.

The helper runs only NumPy functions and its callers' private kernels,
never a public function of the package, which a profiler may wrap with
state that is not thread-safe.
"""

from __future__ import annotations

import hashlib
import os
import threading

# A 16-to-64 tanh layer split in row halves broke even at about 2^18.3
# multiply-adds (320 rows) and ran 1.6x as fast at 2^20; AdamW broke even at
# about 45,000 elements, about 2^20 in these units (CHANGES.md).
SPLIT_WORK = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Helper:
    """A daemon thread that runs one handed-off call at a time.

    Two locks carry the hand-off: ``run`` stores the call and releases
    ``_go``, which the thread waits on; the thread releases ``_done`` when
    the call returns, which ``wait`` takes. An exception in the call is
    raised again by ``wait``. If the thread has not taken ``_go`` by the
    time ``wait`` is called (on a busy host its CPU may not run for
    milliseconds), ``wait`` takes it back and makes the call itself, so the
    caller never waits for a thread that has not started. The thread starts
    at the first ``run``, so a run whose kernels never split stays a
    single-threaded process. ``close`` stops and joins the thread.
    """

    def __init__(self) -> None:
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task: tuple | None = None
        self._error: Exception | None = None
        self._pending = False
        # split()'s verdicts, by key: whether the halves' bits equal the whole's.
        self.exact: dict[tuple, bool] = {}
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while True:
            self._go.acquire()
            if self._task is None:
                return
            fn, args = self._task
            try:
                fn(*args)
            except Exception as exc:  # raised again in the caller's thread by wait()
                self._error = exc
            finally:
                self._done.release()

    def run(self, fn, *args) -> None:
        """Hand ``fn(*args)`` to the helper thread; ``wait`` must follow."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop, name="dualmargin-helper",
                                            daemon=True)
            self._thread.start()
        self._task = (fn, args)
        self._pending = True
        self._go.release()

    def wait(self) -> None:
        """Return when the call ``run`` handed off has returned, making it
        here if the thread has not started it; raise its exception."""
        self._pending = False
        if self._go.acquire(blocking=False):
            fn, args = self._task
            fn(*args)
            return
        self._done.acquire()
        error, self._error = self._error, None
        if error is not None:
            raise error

    def split(self, key: tuple, fn, first: tuple, second: tuple, whole: tuple,
              outs: list) -> None:
        """``fn(*first)`` on the helper thread and ``fn(*second)`` here, at
        once: the two halves of ``fn(*whole)``, which writes the C-contiguous
        arrays ``outs``.

        A BLAS may compute a product of fewer rows with another kernel, and
        so other bits: OpenBLAS 0.3.31 on an AVX-512 host does for most
        output widths over 192 that are not multiples of 8. The kernel
        follows from the shapes, not the values, so the first split of each
        ``key`` (the shapes) is compared with ``fn(*whole)``, whose result is
        kept; a key whose halves' bits differ runs whole from then on.
        """
        exact = self.exact.get(key)
        if exact is not False:
            self.run(fn, *first)
            fn(*second)
            self.wait()
            if exact:
                return
            # Digests, not copies: the check adds no memory to the step.
            halves = [hashlib.sha256(out).digest() for out in outs]
        fn(*whole)
        if exact is None:
            self.exact[key] = halves == [hashlib.sha256(out).digest() for out in outs]

    def close(self) -> None:
        """Let a call still running finish, then stop and join the thread."""
        if self._thread is None:
            return
        if self._pending and not self._go.acquire(blocking=False):
            self._done.acquire()
        self._pending = False
        self._task = None
        self._go.release()
        self._thread.join()


def start_helper() -> Helper | None:
    """A ``Helper`` when two or more CPUs are usable, else None."""
    return Helper() if usable_cpus() >= 2 else None

"""One helper thread that runs a NumPy kernel beside the calling thread.

``train`` makes one ``Helper`` and passes it to the step's kernels: the
encoder's forward and backward passes, the loss's forward and backward
passes and ``AdamW.step``. A large kernel is computed as two parts, row
halves or two independent calls: it hands the helper one part (``run``),
makes the other itself, then waits for the helper, or makes the handed-off
part too if the helper has not started it (``wait``). NumPy releases the
interpreter lock inside its kernels, so on two CPUs the parts run at once,
on disjoint outputs. BLAS stays on one thread in each.

On a host with fewer than two usable CPUs the helper starts no thread and
``wait`` makes each handed-off part in the calling thread, so a run
computes the same parts, with the same bits, on any CPU count. Row halves
of a BLAS product may have other bits than the whole product; a halved
kernel's bits are its halves'.

A kernel is shared only when its work is at least ``SPLIT_WORK``
multiply-adds. Below that the hand-off, about 22 µs of lock ping-pong on
a 2-CPU host, and the second core's cache misses cost more than half the
kernel saves; the default 32-row step is far below it and shares none.

The helper runs only NumPy functions and its callers' private kernels,
never a public function of the package, which a profiler may wrap with
state that is not thread-safe.
"""

from __future__ import annotations

import os
import threading

# A 16-to-64 tanh layer computed in row halves broke even at about 2^18.3
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
    at the first ``run``, so a run that shares no kernel stays a
    single-threaded process, and only where two or more CPUs are usable;
    with fewer, ``wait`` makes every call. ``close`` stops and joins the
    thread.
    """

    def __init__(self) -> None:
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task: tuple | None = None
        self._error: Exception | None = None
        self._pending = False
        self._threaded = usable_cpus() >= 2
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
        if self._thread is None and self._threaded:
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

    def both(self, fn, first: tuple, second: tuple) -> None:
        """``fn(*first)`` on the helper thread and ``fn(*second)`` here, at once."""
        self.run(fn, *first)
        fn(*second)
        self.wait()

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

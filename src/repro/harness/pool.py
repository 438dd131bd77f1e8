"""The one process pool behind every sweep front end.

:func:`~repro.harness.campaign.fan_out` opens a :class:`WorkerPool` for one
batch sweep and joins it; the campaign server keeps one for its whole life and
awaits its futures from the event loop.  Every worker runs the orphan
watchdog, and :meth:`WorkerPool.try_submit` alone decides when a call cannot
run in a process (no process support, a broken pool, a call that does not
pickle).  A batch sweep then runs the cell serially, the server on threads;
the result is the same, because every cell derives its randomness from its
own seed.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import (Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from concurrent.futures.process import BrokenProcessPool


def _watch_for_orphaning(parent_pid: int, poll_s: float = 2.0) -> None:
    """Pool-worker initializer: exit if the parent process disappears.

    A SIGKILLed pool owner cannot shut its pool down, and an orphaned
    ``ProcessPoolExecutor`` worker blocks on the call queue forever (the
    feeder keeps the pipe's write end open inside the worker itself, so it
    never reads EOF).  The server's durability story is "kill -9 me", and a
    batch sweep can be OOM-killed, so every worker watches its parent and
    exits once it is re-parented.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(poll_s)
        os._exit(0)

    threading.Thread(target=watch, daemon=True,
                     name="orphan-watchdog").start()


def effective_workers(requested: int | None, n_items: int) -> int:
    """Clamp a worker request to what can actually help.

    Never more workers than items, never more than the machine has cores —
    on a 1-CPU box a process pool can only add fork/IPC overhead on top of a
    workload that already saturates the core (the campaign micro-benchmark
    measured 0.65x "speedup" exactly this way).
    """
    return min(requested or 1, n_items, os.cpu_count() or 1)


class WorkerPool:
    """Lazily-created process pool with a thread fallback.

    ``pool.executor`` is a live :class:`concurrent.futures.Executor`; the
    first submission that reveals a broken or unsupported process pool flips
    the pool to threads permanently (``pool.mode`` says which one is active).
    """

    def __init__(self, workers: int | None = None) -> None:
        requested = workers if workers and workers > 0 else (os.cpu_count() or 1)
        self.width = min(requested, os.cpu_count() or 1)
        self.mode = "unstarted"
        self._executor: Executor | None = None

    @property
    def executor(self) -> Executor:
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.width,
                    initializer=_watch_for_orphaning,
                    initargs=(os.getpid(),))
                self.mode = "processes"
            except (ImportError, NotImplementedError, OSError):
                self._executor = ThreadPoolExecutor(max_workers=self.width)
                self.mode = "threads"
        return self._executor

    def fall_back_to_threads(self) -> Executor:
        """Replace a broken process pool with threads (one-way)."""
        old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        self._executor = ThreadPoolExecutor(max_workers=self.width)
        self.mode = "threads"
        return self._executor

    def try_submit(self, fn, *args) -> Future | None:
        """Submit ``fn(*args)`` to a worker process, or return None if the
        environment cannot run it there.  Pickling is checked first, so an
        exception raised inside the call always comes back on the future."""
        try:
            pickle.dumps((fn, args))
        except (pickle.PicklingError, TypeError, AttributeError):
            return None
        executor = self.executor
        if self.mode != "processes":
            return None
        try:
            return executor.submit(fn, *args)
        except (BrokenProcessPool, RuntimeError):
            return None

    def submit(self, fn, *args) -> Future:
        """Submit work; what a process cannot take runs on threads."""
        future = self.try_submit(fn, *args)
        if future is not None:
            return future
        if self.mode != "threads":
            self.fall_back_to_threads()
        return self.executor.submit(fn, *args)

    def shutdown(self, *, wait: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
            self.mode = "shutdown"

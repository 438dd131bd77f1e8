"""Host speed, sampled with fixed calibration kernels while a cell runs.

The small shared machines this benchmark was tuned on change speed by up to
60 % within a second (CPU frequency and neighbours on shared cores), and
stay fast or slow for seconds at a time; two runs of identical code read
5-20 % apart.  So every timed interval is scaled to a *reference host*: one
on which each calibration kernel in :data:`KERNELS` takes its reference
time.  While a :class:`SpeedProbe` is entered, a ``SIGALRM`` timer measures
:func:`speed` every :data:`PERIOD_S` host seconds inside the interval, so a
slow spell is sampled in the same proportion as it slowed the interval.
The kernels' own time is subtracted from the interval.  No thread or
process is started.

One kernel alone tracks the program poorly: different kinds of contention
slow integer loops, allocation-heavy code and numpy sweeps by different
amounts.  The README has the pass-to-pass spreads each mix left.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

import numpy as np

#: Host seconds between two samples while a probe is entered.
PERIOD_S = 0.15


def _integer_loop() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


class _Event:
    __slots__ = ("due", "key")

    def __init__(self, due: float, key: int) -> None:
        self.due = due
        self.key = key


def _event_queue() -> None:
    """A small discrete-event loop: heap pushes and pops, objects, a dict."""
    heap: list = []
    counts: dict[int, int] = {}
    seq = 0
    for i in range(600):
        heapq.heappush(heap, (i * 7919 % 1009 * 1.0, seq, _Event(0.0, i)))
        seq += 1
    while heap:
        due, _, event = heapq.heappop(heap)
        counts[event.key & 127] = counts.get(event.key & 127, 0) + 1
        if event.key % 3 == 0 and due < 800.0:
            heapq.heappush(heap, (due + 300.0, seq, _Event(due, event.key + 1)))
            seq += 1


_ARRAY = np.arange(1 << 15, dtype=np.float64)  # 256 KiB


def _array_sweep() -> None:
    for _ in range(20):
        float((_ARRAY * 1.0001).sum())


#: Each kernel with its host seconds on the reference host: the fast state
#: of the 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) the benchmark was tuned on.
#: The kernels keep little data, so the program's use of the caches barely
#: moves their times.  (A mix that also swept 4 MiB and 10 MiB read the host
#: 40 % slower inside a run than back to back, so a change to the program's
#: memory footprint would have moved the host speed it is scaled by.)
KERNELS = ((_integer_loop, 1.40e-3), (_event_queue, 0.75e-3),
           (_array_sweep, 0.40e-3))


def kernel_times() -> list[float]:
    """Host seconds of each kernel in :data:`KERNELS`; each runs once
    untimed first, so what the program left in the caches does not count."""
    times = []
    for kernel, _ in KERNELS:
        kernel()
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def speed() -> float:
    """Host speed now, relative to the reference host (2.0 = twice as fast):
    the mean over the kernels of reference time over measured time."""
    return statistics.fmean(ref / t for (_, ref), t in zip(KERNELS, kernel_times()))


class SpeedProbe:
    """Samples :func:`speed` at entry, at exit and, unless ``period`` is
    None, every ``period`` host seconds in between; ``overhead_s`` is the
    host time the in-between samples took."""

    def __init__(self, period: float | None = PERIOD_S) -> None:
        self.period = period
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._previous_handler = None

    def _on_alarm(self, signum, frame) -> None:
        # A collection triggered by the kernels' allocations would move the
        # program's later collections; the kernels free all they allocate,
        # so with collection off here the counts end unchanged.  (Python
        # still makes a frame object for the interrupted code, which can
        # move a collection by one allocation: see ``run.measure``.)
        t0 = time.perf_counter()
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(speed())
        finally:
            if gc_enabled:
                gc.enable()
        self.overhead_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.samples = [speed()]
        self.overhead_s = 0.0
        if self.period is not None:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self.samples.append(speed())

    def reference_s(self, host_s: float) -> float:
        """``host_s`` (measured inside the probe, overhead included) as
        seconds on the reference host."""
        return (host_s - self.overhead_s) * statistics.fmean(self.samples)

"""Deterministic discrete-event simulation engine.

Everything dynamic in the reproduction — task iterations, message deliveries,
heartbeats, checkpoint phases, fault injections — is an event on this queue.
Determinism is guaranteed by a monotone sequence number that breaks ties among
events scheduled for the same instant (FIFO order), so a given seed always
replays the same execution.

The dispatch loop is the hottest code in the repo (every campaign cell spends
its life here), so the queue holds plain ``(time, seq, handle, callback,
args)`` tuples — tie-breaking comparisons run entirely in C, and the loop
reads the callback straight out of the tuple.  Three scheduling entry points
trade generality for cost:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — the general
  path; returns a cancellable :class:`EventHandle`;
* :meth:`Simulator.post` / :meth:`Simulator.post_at` — fire-and-forget: no
  handle is allocated, for the per-message deliveries that nothing ever
  cancels (a component that takes their effect over can
  :meth:`~Simulator.withdraw` them);
* :meth:`Simulator.schedule_periodic` — recurring timers rescheduled inside
  the engine, so a heartbeat that ticks a million times costs one handle and
  no public re-entry per tick.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator

from repro.util.errors import SimulationError

_INF = float("inf")


class EventHandle:
    """A scheduled event; cancel() prevents a pending callback from firing."""

    __slots__ = ("callback", "args", "cancelled", "fired", "time", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    @property
    def pending(self) -> bool:
        return not (self.cancelled or self.fired)


class PeriodicHandle(EventHandle):
    """A recurring event; stays scheduled (``pending``) until cancelled.

    The engine re-inserts the next occurrence itself after each firing — the
    public scheduling API (validation, handle allocation) is paid once for
    the timer's whole lifetime, not once per tick.
    """

    __slots__ = ("interval",)

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        sim: "Simulator",
        interval: float,
    ):
        super().__init__(time, callback, args, sim)
        self.interval = interval


class Simulator:
    """A minimal, fast event-driven simulator with simulated seconds."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Heap of ``(time, seq, handle_or_None, callback, args)`` tuples.
        #: ``handle`` is None for fire-and-forget events (see :meth:`post`);
        #: (time, seq) is unique, so the trailing fields are never compared.
        self._heap: list[tuple] = []
        #: The same-instant batch the run loop is dispatching (popped off
        #: the heap, partly fired), for :meth:`queued`.
        self._cohort: list[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Raw scheduling stats (always on — plain int bumps) feeding the
        #: telemetry metrics registry: how many events were ever scheduled,
        #: how many were reaped cancelled, and the queue's high-water mark.
        self.events_scheduled = 0
        self.events_cancelled = 0
        self.max_queue_depth = 0
        #: Cohort-batching stats: the run loop drains all events sharing one
        #: timestamp as a single batch (one pop loop, one dispatch pass).
        #: ``cohort_hist[i]`` counts cohorts of size in [2^i, 2^(i+1)) —
        #: index = size.bit_length()-1, capped — and ``max_cohort_events`` is
        #: the largest batch seen.  Together with ``max_queue_depth`` these
        #: quantify how much same-instant batching the workload exposes.
        self.cohort_hist = [0] * 20
        self.max_cohort_events = 0
        self.cohorts_dispatched = 0
        #: Live count of pending events (scheduled, neither fired nor
        #: cancelled) — kept current by schedule/cancel/dispatch so
        #: :attr:`pending_events` is O(1) instead of a heap scan.
        self._live = 0
        #: Callables run (no arguments) whenever :meth:`run` returns, so
        #: state kept outside the heap (the task-ring fast-forward, see
        #: :mod:`repro.runtime.ring`) is exact for whoever reads it next.
        self.return_hooks: list[Callable[[], None]] = []

    # -- scheduling ---------------------------------------------------------------
    # The push bookkeeping (heap insert, stats, live count) is inlined into
    # schedule_at and post on purpose: they run once per event and a helper
    # call per event is measurable at campaign scale.

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        handle = EventHandle(time, callback, args, self)
        heap = self._heap
        heappush(heap, (time, next(self._seq), handle, callback, args))
        self.events_scheduled += 1
        self._live += 1
        if len(heap) > self.max_queue_depth:
            self.max_queue_depth = len(heap)
        return handle

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        The fast path for events nothing can cancel (message deliveries);
        dispatch order and sequence numbering are identical to
        :meth:`schedule`, only the per-event handle allocation is gone.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heap = self._heap
        heappush(heap, (self.now + delay, next(self._seq), None, callback, args))
        self.events_scheduled += 1
        self._live += 1
        if len(heap) > self.max_queue_depth:
            self.max_queue_depth = len(heap)

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: ``callback(*args)`` at the
        absolute instant ``time``, with no :class:`EventHandle`.

        For events whose instant was computed elsewhere: ``now + (time -
        now)`` need not round back to ``time``, so :meth:`post` cannot
        place them exactly.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heap = self._heap
        heappush(heap, (time, next(self._seq), None, callback, args))
        self.events_scheduled += 1
        self._live += 1
        if len(heap) > self.max_queue_depth:
            self.max_queue_depth = len(heap)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        first_delay: float | None = None,
    ) -> PeriodicHandle:
        """Fire ``callback(*args)`` every ``interval`` seconds until cancelled.

        The first firing is ``first_delay`` seconds from now (default: one
        ``interval``); each subsequent occurrence is re-inserted by the run
        loop itself with a fresh sequence number, exactly as if the callback
        had rescheduled itself as its last statement — but without churning
        the public API per tick.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, got {interval}")
        delay = interval if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        handle = PeriodicHandle(time, callback, args, self, interval)
        heap = self._heap
        heappush(heap, (time, next(self._seq), handle, callback, args))
        self.events_scheduled += 1
        self._live += 1
        if len(heap) > self.max_queue_depth:
            self.max_queue_depth = len(heap)
        return handle

    def queued(self) -> Iterator[tuple]:
        """The queue's raw ``(time, seq, handle, callback, args)`` entries,
        in no particular order (a read: modify none of them).  While a batch
        of same-instant events is being dispatched, its entries (fired or
        not) come too: they are off the heap, not done."""
        return itertools.chain(self._heap, self._cohort)

    def withdraw(self, entries: list[tuple]) -> None:
        """Take the fire-and-forget ``entries`` (from :meth:`queued`, later
        than now) off the queue unfired: whoever withdraws an event now
        owns its effect."""
        if not entries:
            return
        seqs = {entry[1] for entry in entries}
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[1] not in seqs]
        heapify(heap)
        self._live -= len(seqs)

    # -- control ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def _reap_cancelled_head(self) -> None:
        """Pop retired (cancelled) entries off the heap head, counting each
        exactly once — the one reaping path shared by :meth:`peek_time` and
        :meth:`run`, so ``events_cancelled`` stays consistent between them."""
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle is None or not (handle.cancelled or handle.fired):
                return
            heappop(heap)
            self.events_cancelled += 1

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None if the queue is empty."""
        self._reap_cancelled_head()
        heap = self._heap
        return heap[0][0] if heap else None

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in order until the queue drains, ``until`` is
        reached, or ``max_events`` have fired.  Returns the final time."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        time_limit = _INF if until is None else until
        event_limit = _INF if max_events is None else max_events
        # The run loop is the only writer of events_processed (callbacks may
        # read it mid-run), so it lives in a local and is stored back before
        # every callback fires.
        processed = self.events_processed
        cohort_hist = self.cohort_hist
        hist_top = len(cohort_hist) - 1
        try:
            while heap and not self._stopped:
                entry = heap[0]
                handle = entry[2]
                if handle is not None and (handle.cancelled or handle.fired):
                    # Retired head: reap through the shared helper (the one
                    # place events_cancelled is counted), then re-test.
                    self._reap_cancelled_head()
                    continue
                time = entry[0]
                if time > time_limit:
                    self.now = until  # type: ignore[assignment]
                    break
                if processed >= event_limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                heappop(heap)
                self.now = time
                if not heap or heap[0][0] != time:
                    # Singleton cohort — dispatch inline, no batch list (the
                    # common case for jittered compute-completion storms).
                    cohort_hist[0] += 1
                    self.cohorts_dispatched += 1
                    processed += 1
                    self.events_processed = processed
                    if handle is None:
                        # Fire-and-forget event: nothing to mark fired.
                        self._live -= 1
                        entry[3](*entry[4])
                    elif type(handle) is PeriodicHandle:
                        entry[3](*entry[4])
                        if not handle.cancelled:
                            # Re-insert in-engine: same ordering as a callback
                            # that reschedules itself as its last statement.
                            next_time = time + handle.interval
                            handle.time = next_time
                            heappush(heap, (next_time, next(self._seq), handle,
                                            entry[3], entry[4]))
                            self.events_scheduled += 1
                            if len(heap) > self.max_queue_depth:
                                self.max_queue_depth = len(heap)
                    else:
                        handle.fired = True
                        self._live -= 1
                        entry[3](*entry[4])
                    continue
                # Same-timestamp cohort: drain every entry sharing this
                # instant in one pop loop, then dispatch in one pass.  Seq
                # order is preserved (heappop yields ascending (time, seq)),
                # and each entry's cancelled flag is re-read at its dispatch
                # turn — an earlier cohort member may have cancelled it.
                cohort = [entry]
                while heap and heap[0][0] == time:
                    cohort.append(heappop(heap))
                size = len(cohort)
                self.cohorts_dispatched += 1
                bucket = size.bit_length() - 1
                cohort_hist[bucket if bucket < hist_top else hist_top] += 1
                if size > self.max_cohort_events:
                    self.max_cohort_events = size
                self._cohort = cohort
                for i, entry in enumerate(cohort):
                    if self._stopped:
                        # stop() landed mid-cohort: the unreached tail never
                        # fired (nor was reaped) — push it back untouched.
                        for e in cohort[i:]:
                            heappush(heap, e)
                        break
                    handle = entry[2]
                    if handle is not None and (handle.cancelled or handle.fired):
                        # Reap at its turn, exactly as the head-reaper would
                        # have when this entry surfaced.
                        self.events_cancelled += 1
                        continue
                    if processed >= event_limit:
                        for e in cohort[i:]:
                            heappush(heap, e)
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "runaway simulation?"
                        )
                    processed += 1
                    self.events_processed = processed
                    if handle is None:
                        self._live -= 1
                        entry[3](*entry[4])
                    elif type(handle) is PeriodicHandle:
                        entry[3](*entry[4])
                        if not handle.cancelled:
                            next_time = time + handle.interval
                            handle.time = next_time
                            heappush(heap, (next_time, next(self._seq), handle,
                                            entry[3], entry[4]))
                            self.events_scheduled += 1
                            if len(heap) > self.max_queue_depth:
                                self.max_queue_depth = len(heap)
                    else:
                        handle.fired = True
                        self._live -= 1
                        entry[3](*entry[4])
                self._cohort = []
            else:
                if until is not None and not heap and self.now < until:
                    self.now = until
        finally:
            self._cohort = []
            self._running = False
            for hook in self.return_hooks:
                hook()
        return self.now

    @property
    def pending_events(self) -> int:
        return self._live

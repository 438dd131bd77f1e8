"""Golden event-order equivalence: the tuple-heap engine vs the pre-overhaul
engine.

The engine overhaul (plain-tuple heap entries, fire-and-forget ``post``,
in-engine periodic rescheduling) is only legal because executions stay
bit-identical.  These tests drive :class:`Simulator` through seeded
workloads and assert the *exact* ``(time, label)`` firing sequence the
pre-overhaul engine (dataclass heap entries, a handle per event) produced —
including FIFO tie-breaking at coincident instants and interactions with
cancellations.  The old engine's sequences are pinned as SHA-256 prefixes
of the trace ``repr``, recorded by running it on the same workloads.

The heartbeat coalescing rides on a specific ordering claim: a periodic
event re-inserted by the engine gets the same sequence number a callback
rescheduling itself as its *last statement* would have drawn.  That claim
gets its own trace test here.
"""

import hashlib

import pytest

from repro.runtime.des import Simulator

_MUL = 6364136223846793005
_ADD = 1442695040888963407
_MASK = (1 << 64) - 1


class _SeededWorkload:
    """A deterministic storm of schedules, nested schedules, ties, and
    cancellations, driven identically on either engine."""

    def __init__(self, sim, seed: int, n_roots: int = 40, fanout_mod: int = 5):
        self.sim = sim
        self.state = (seed * 2 + 1) & _MASK
        self.trace: list[tuple[float, int]] = []
        self.handles: list = []
        self.next_label = 0
        self.n_roots = n_roots
        self.fanout_mod = fanout_mod

    def _rnd(self) -> int:
        self.state = (self.state * _MUL + _ADD) & _MASK
        return self.state

    def _delay(self) -> float:
        # Coarse quantization produces plenty of exact ties, exercising the
        # FIFO sequence-number tie-break.
        return (self._rnd() >> 56) * 0.25

    def start(self) -> None:
        for _ in range(self.n_roots):
            self._spawn()

    def _spawn(self) -> None:
        label = self.next_label
        self.next_label += 1
        self.handles.append(self.sim.schedule(self._delay(), self.fire, label))

    def fire(self, label: int) -> None:
        self.trace.append((self.sim.now, label))
        r = self._rnd()
        if r % self.fanout_mod == 0 and self.handles:
            # Cancel a pseudo-random pending handle (cancelling an already
            # fired/cancelled one must also be an identical no-op on both).
            self.handles[r % len(self.handles)].cancel()
        for _ in range(r % 3):  # 0..2 successors keeps the storm finite-ish
            if self.next_label < 4000:
                self._spawn()


def _run_workload(sim, seed: int) -> tuple[list, float, int]:
    w = _SeededWorkload(sim, seed)
    w.start()
    final = sim.run()
    return w.trace, final, sim.events_processed


def _digest(trace: list) -> str:
    return hashlib.sha256(repr(trace).encode()).hexdigest()[:16]


#: The pre-overhaul engine on each seeded storm: trace digest, final time,
#: events processed.
_LEGACY_STORMS = {
    0: ("e0a8f386b2b08297", 2089.75, 3956),
    1: ("2aeb69d238ce882c", 1961.0, 1334),
    7: ("c4cf891e74e24827", 746.0, 461),
    42: ("1cab691a0277d110", 1370.5, 731),
    1234: ("488a591912c89ea5", 1869.75, 873),
}


class TestTraceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_seeded_storm_replays_identically(self, seed):
        trace, final, n = _run_workload(Simulator(), seed)
        assert (_digest(trace), final, n) == _LEGACY_STORMS[seed]
        assert len(trace) > 100  # the storm actually stormed

    def test_post_matches_schedule_ordering(self):
        """Anonymous (``post``) and handled (``schedule``) events draw from
        the same sequence stream, so interleaving them preserves FIFO order
        at coincident instants."""
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "s0")
        sim.post(1.0, log.append, "p0")
        sim.schedule(1.0, log.append, "s1")
        sim.post(1.0, log.append, "p1")
        sim.run()
        assert log == ["s0", "p0", "s1", "p1"]

    def test_run_until_clock_semantics_match_legacy(self):
        # The pre-overhaul engine fired an event due exactly at ``until``
        # and left the clock at ``until`` either way.
        for until, fired in ((0.5, False), (1.0, True), (10.0, True)):
            sim = Simulator()
            log = []
            sim.schedule(1.0, log.append, "due")
            assert sim.run(until=until) == until
            assert sim.now == until
            assert log == (["due"] if fired else [])


class TestPeriodicOrderingParity:
    """``schedule_periodic`` must be indistinguishable (same times, same
    tie-break order) from the callback-reschedules-itself-last pattern it
    replaced — that is the whole argument for the heartbeat coalescing."""

    def _resched_trace(self, intervals) -> list:
        sim = Simulator()
        trace = []

        def make_tick(tid, interval):
            def tick():
                trace.append((sim.now, tid))
                sim.schedule(interval, tick)  # reschedule as last statement
            return tick

        for tid, interval in enumerate(intervals):
            sim.schedule(interval, make_tick(tid, interval))
        sim.run(until=30.0)
        return trace

    def _periodic_trace(self, intervals) -> list:
        sim = Simulator()
        trace = []
        for tid, interval in enumerate(intervals):
            sim.schedule_periodic(interval, lambda t=tid: trace.append((sim.now, t)))
        sim.run(until=30.0)
        return trace

    @pytest.mark.parametrize("intervals, legacy_digest", [
        ((1.0, 1.0, 1.0), "66def6095211bae1"),  # permanent three-way ties
        ((0.5, 1.0, 2.0), "6d4948c5af08f410"),  # harmonic ties at integers
        ((0.75, 1.25), "b7922c9a51abd075"),     # ties only at 3.75, 7.5, ...
    ])
    def test_periodic_equals_self_rescheduling(self, intervals,
                                               legacy_digest):
        expected = self._resched_trace(intervals)
        assert self._periodic_trace(intervals) == expected
        # The same pattern on the pre-overhaul engine.
        assert _digest(expected) == legacy_digest

    def test_first_delay_offsets_only_the_first_firing(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(2.0, lambda: times.append(sim.now),
                              first_delay=0.5)
        sim.run(until=7.0)
        assert times == [0.5, 2.5, 4.5, 6.5]

    def test_cancel_inside_callback_stops_rescheduling(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_periodic(1.0, lambda: (
            fired.append(sim.now),
            handle.cancel() if len(fired) == 3 else None))
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.pending_events == 0

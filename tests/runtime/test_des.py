"""Discrete-event simulator tests."""

import pytest

from repro.runtime.des import Simulator
from repro.util.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        log = []
        for tag in "abcde":
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 3.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)


class TestControl:
    def test_run_until_pauses_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 1)
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == [1]

    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        h.cancel()
        sim.run()
        assert fired == []
        assert not h.pending

    def test_stop_halts_processing(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append(1), sim.stop()))
        sim.schedule(2.0, log.append, 2)
        sim.run()
        assert log == [1]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek_time() == 2.0

    def test_pending_events_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        h = sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.pending_events == 1

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestPost:
    def test_post_fires_like_schedule(self):
        sim = Simulator()
        log = []
        sim.post(2.0, log.append, "b")
        sim.post(1.0, log.append, "a")
        sim.run()
        assert log == ["a", "b"]
        assert sim.now == 2.0

    def test_post_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)

    def test_post_counts_as_scheduled_and_pending(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        assert sim.events_scheduled == 1
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 1
        assert sim.pending_events == 0

    def test_post_at_places_an_absolute_instant_exactly(self):
        sim = Simulator()
        log = []
        sim.run(until=0.7)
        # 0.7 + (2.9 - 0.7) != 2.9 in floats: post() could not hit it.
        assert sim.now + (2.9 - sim.now) != 2.9
        sim.post_at(2.9, lambda: log.append(sim.now))
        sim.run()
        assert log == [2.9]

    def test_post_at_past_rejected(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.post_at(0.5, lambda: None)


class TestReturnHooks:
    def test_hooks_run_on_every_return(self):
        sim = Simulator()
        seen = []
        sim.return_hooks.append(lambda: seen.append(sim.now))
        sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, sim.stop)
        sim.run(until=2.0)   # until
        sim.run()            # stop
        sim.run()            # drained
        assert seen == [2.0, 3.0, 3.0]


class TestPeriodic:
    def test_fires_every_interval_until_cancelled(self):
        sim = Simulator()
        times = []
        handle = sim.schedule_periodic(1.5, lambda: times.append(sim.now))
        sim.run(until=5.0)
        assert times == [1.5, 3.0, 4.5]
        assert handle.pending
        handle.cancel()
        sim.run(until=10.0)
        assert times == [1.5, 3.0, 4.5]

    def test_nonpositive_interval_rejected(self):
        sim = Simulator()
        for bad in (0.0, -1.0):
            with pytest.raises(SimulationError):
                sim.schedule_periodic(bad, lambda: None)

    def test_negative_first_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(1.0, lambda: None, first_delay=-0.5)

    def test_cancel_before_first_firing(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_periodic(1.0, fired.append, "x")
        handle.cancel()
        sim.run(until=5.0)
        assert fired == []
        assert sim.pending_events == 0

    def test_periodic_is_one_pending_event(self):
        sim = Simulator()
        handle = sim.schedule_periodic(1.0, lambda: None)
        sim.run(until=100.5)  # 100 firings
        assert sim.pending_events == 1  # still armed
        handle.cancel()
        assert sim.pending_events == 0


class TestCounterConsistency:
    def test_double_cancel_decrements_pending_once(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        h.cancel()
        assert sim.pending_events == 0
        assert sim.events_cancelled == 0

    def test_events_cancelled_same_via_peek_or_run(self):
        """Reaping goes through one shared helper, so the count is the same
        whether cancelled entries are discovered by peek_time or by run."""
        def build():
            sim = Simulator()
            for i in range(4):
                h = sim.schedule(1.0 + i, lambda: None)
                if i % 2 == 0:
                    h.cancel()
            return sim

        via_run = build()
        via_run.run()
        via_peek = build()
        assert via_peek.peek_time() == 2.0
        via_peek.run()
        assert via_run.events_cancelled == via_peek.events_cancelled == 2
        assert via_run.events_processed == via_peek.events_processed == 2

    def test_max_queue_depth_tracks_high_water(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.post(1.0, lambda: None)
        sim.run()
        assert sim.max_queue_depth == 4

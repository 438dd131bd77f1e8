"""Timeline recorder tests."""

from repro.core.events import Timeline, TimelineKind


class TestTimeline:
    def make(self):
        tl = Timeline()
        tl.record(0.0, TimelineKind.JOB_START)
        tl.record(5.0, TimelineKind.CHECKPOINT_DONE, iteration=10)
        tl.record(7.0, TimelineKind.HARD_FAULT_INJECTED, replica=1, rank=2)
        tl.record(9.0, TimelineKind.CHECKPOINT_DONE, iteration=20)
        tl.record(14.0, TimelineKind.CHECKPOINT_DONE, iteration=30)
        return tl

    def test_of_kind_filters(self):
        tl = self.make()
        assert len(tl.of_kind(TimelineKind.CHECKPOINT_DONE)) == 3
        assert tl.of_kind(TimelineKind.HARD_FAULT_INJECTED)[0].detail["rank"] == 2

    def test_times_of(self):
        assert self.make().times_of(TimelineKind.CHECKPOINT_DONE) == [5.0, 9.0, 14.0]

    def test_checkpoint_intervals(self):
        assert self.make().checkpoint_intervals() == [4.0, 5.0]

    def test_render_ascii_marks(self):
        art = self.make().render_ascii(width=50, horizon=15.0, legend=False)
        assert len(art) == 50
        assert art.count("|") == 3
        assert art.count("X") == 1

    def test_render_ascii_legend(self):
        art = self.make().render_ascii(width=50, horizon=15.0)
        lane, legend = art.split("\n")
        assert len(lane) == 50
        assert legend == Timeline.LEGEND
        assert "checkpoint" in legend and "hard fault" in legend

    def test_render_distinguishes_sdc_and_recovery(self):
        tl = Timeline()
        tl.record(2.0, TimelineKind.SDC_INJECTED)
        tl.record(5.0, TimelineKind.HARD_FAULT_INJECTED)
        tl.record(8.0, TimelineKind.RECOVERY_DONE)
        art = tl.render_ascii(width=30, horizon=10.0, legend=False)
        assert art.count("s") == 1
        assert art.count("X") == 1
        assert art.count("R") == 1

    def test_render_failures_dominate_collisions(self):
        tl = Timeline()
        tl.record(5.0, TimelineKind.CHECKPOINT_DONE)
        tl.record(5.0, TimelineKind.SDC_INJECTED)
        tl.record(5.0, TimelineKind.HARD_FAULT_INJECTED)
        art = tl.render_ascii(width=10, horizon=10.0, legend=False)
        assert "X" in art and "|" not in art and "s" not in art

    def test_render_zero_horizon(self):
        tl = Timeline()
        tl.record(0.0, TimelineKind.JOB_START)
        tl.record(0.0, TimelineKind.HARD_FAULT_INJECTED)
        art = tl.render_ascii(width=10, horizon=0.0, legend=False)
        assert len(art) == 10
        assert "X" in art

    def test_empty_timeline(self):
        assert Timeline().render_ascii() == "(empty timeline)"


class TestTimelineSubscribers:
    def test_subscribe_delivers_events(self):
        tl = Timeline()
        seen: list = []
        tl.subscribe(seen.append)
        tl.record(1.0, TimelineKind.JOB_START)
        assert len(seen) == 1 and seen[0].kind is TimelineKind.JOB_START

    def test_unsubscribe_removes(self):
        tl = Timeline()
        seen: list = []
        fn = seen.append
        tl.subscribe(fn)
        tl.record(1.0, TimelineKind.JOB_START)
        tl.unsubscribe(fn)
        tl.record(2.0, TimelineKind.JOB_END)
        assert len(seen) == 1

    def test_unsubscribe_unknown_is_noop(self):
        Timeline().unsubscribe(lambda e: None)

    def test_multiple_subscribers_coexist(self):
        tl = Timeline()
        a: list = []
        b: list = []
        tl.subscribe(a.append)
        tl.subscribe(b.append)
        tl.record(1.0, TimelineKind.CHECKPOINT_DONE)
        assert len(a) == 1 and len(b) == 1

"""Invariant monitor: catches planted defects, stays quiet on healthy runs."""

import pytest

import repro.core.framework as framework_mod
from repro.chaos import (
    InvariantMonitor,
    InvariantViolation,
    LEGAL_TRANSITIONS,
    fuzz_schedule,
    run_schedule,
    shrink_schedule,
)
from repro.chaos.fuzzer import ChaosSchedule
from repro.core import ACR, ACRConfig
from repro.faults import InjectionPlan
from repro.util.errors import ACRError


def build_acr(**overrides):
    defaults = dict(checkpoint_interval=2.0, total_iterations=30,
                    tasks_per_node=1, app_scale=1e-4, seed=1, spare_nodes=8)
    defaults.update(overrides)
    return ACR("synthetic", nodes_per_replica=2, config=ACRConfig(**defaults),
               injection_plan=InjectionPlan())


def prefix_finish_double_failure(self, from_scratch):
    """The pre-fix double-failure finisher: revives undetected dead nodes
    without consuming spares and never reconciles diverged safe
    generations after a lost weak shipment."""
    from repro.core.events import TimelineKind

    self._phase_events = []
    for nid in range(2 * self.n):
        if not self.transport.alive[nid]:
            self._revive(nid)
    if from_scratch:
        for replica in (0, 1):
            self.store.install_safe(
                replica,
                self.store.clone_generation(self._initial_gen[replica]))
    for replica in (0, 1):
        self._restore_replica(replica, self.store.safe(replica))
    self.report.rollbacks += 1
    key = "restart-from-beginning" if from_scratch else "double-failure"
    self.report.recoveries[key] = self.report.recoveries.get(key, 0) + 1
    self.timeline.record(self.sim.now, TimelineKind.ROLLBACK, reason=key)
    self.timeline.record(self.sim.now, TimelineKind.RECOVERY_DONE, scheme=key)
    self.phase = "running"
    self._after_activity()


class TestWiring:
    def test_clean_run_passes_all_checks(self):
        acr = build_acr()
        monitor = InvariantMonitor().attach(acr)
        report = acr.run(until=500.0)
        monitor.final_check(report)
        assert report.completed
        assert monitor.checks_performed > 10
        assert monitor.violations == []
        # running -> ... -> done was observed ("idle" is set at construction,
        # before any observer can attach).
        phases = [new for _, _, new in monitor.transitions_seen]
        assert phases[0] == "running"
        assert phases[-1] == "done"

    def test_monitor_is_single_use(self):
        acr = build_acr()
        monitor = InvariantMonitor().attach(acr)
        with pytest.raises(ACRError):
            monitor.attach(build_acr())

    def test_legal_transition_table_is_closed(self):
        # Every reachable phase has an entry; done is terminal.
        states = set().union(*LEGAL_TRANSITIONS.values())
        assert states <= set(LEGAL_TRANSITIONS)
        assert LEGAL_TRANSITIONS["done"] == frozenset()


class TestDetection:
    def test_illegal_phase_transition_raises(self):
        acr = build_acr()
        InvariantMonitor().attach(acr)
        acr.phase = "idle"
        with pytest.raises(InvariantViolation) as exc:
            acr.phase = "checkpointing"
        assert exc.value.invariant == "phase-legal"

    def test_done_is_terminal(self):
        acr = build_acr()
        monitor = InvariantMonitor().attach(acr)
        acr.run(until=500.0)
        with pytest.raises(InvariantViolation):
            acr.phase = "running"
        assert monitor.violations

    def test_negative_iteration_commit_raises(self):
        # The store itself rejects missing shards; the oracle additionally
        # rejects a committed generation claiming a negative iteration.
        acr = build_acr()
        InvariantMonitor().attach(acr)
        acr.store.begin_candidate(0, -3, 0.0)
        from repro.pup import pack

        for rank in range(2):
            acr.store.put_shard(0, rank, pack(acr.apps[0].shard(rank)))
        with pytest.raises(InvariantViolation) as exc:
            acr.store.commit(0)
        assert exc.value.invariant == "generation-complete"

    def test_liveness_failure_on_hung_run(self):
        acr = build_acr(total_iterations=10_000)
        monitor = InvariantMonitor().attach(acr)
        report = acr.run(until=1.0)  # horizon far before the iteration cap
        assert not report.completed and report.aborted_reason is None
        with pytest.raises(InvariantViolation) as exc:
            monitor.final_check(report)
        assert exc.value.invariant == "liveness"


class TestReintroducedBug:
    """The acceptance check: re-introduce a fixed lifecycle bug, and the
    fuzzer + monitor must catch it and shrink it to a replayable plan."""

    def test_orphaned_timers_after_done_are_caught(self, monkeypatch):
        # Revert the done-quiescence fix: every schedule finishes with a
        # still-armed watchdog or checkpoint timer on the queue.
        monkeypatch.setattr(framework_mod.ACR, "_quiesce_timers",
                            lambda self: None)
        outcome = run_schedule(fuzz_schedule(0))
        assert not outcome.ok
        assert outcome.invariant == "quiescence"

    def test_cascade_sweep_bug_is_caught_and_minimized(self, monkeypatch):
        monkeypatch.setattr(framework_mod.ACR, "_finish_double_failure",
                            prefix_finish_double_failure)
        failing = None
        for seed in range(32):
            outcome = run_schedule(fuzz_schedule(seed))
            if not outcome.ok:
                failing = outcome
                break
        assert failing is not None, \
            "reverted cascade-sweep bug escaped 32 fuzzed schedules"
        assert failing.invariant == "spare-accounting"
        shrunk = shrink_schedule(ChaosSchedule.from_dict(failing.schedule))
        assert shrunk.minimized_events <= shrunk.original_events
        # The minimized plan replays from JSON to the identical failure.
        replay = run_schedule(
            ChaosSchedule.from_json(shrunk.schedule.to_json()))
        assert not replay.ok
        assert replay.invariant == shrunk.outcome.invariant
        assert replay.fingerprint == shrunk.outcome.fingerprint

    def test_fixed_framework_passes_same_seeds(self):
        for seed in range(32):
            outcome = run_schedule(fuzz_schedule(seed))
            assert outcome.ok, (seed, outcome.invariant, outcome.violation)


class TestStorageMonotoneAfterRestart:
    """A restart from the launch state or a durable generation begins a new
    persisted history: the first persist after it may lie below the newer,
    rejected copies the tiers still hold."""

    @pytest.mark.parametrize("seed", [209, 1508, 2390])
    def test_restart_from_the_beginning_then_persist(self, seed):
        # Each schedule loses a weak-scheme buddy pair in the weak-pending
        # window while the tier copies are bit-rotted, so the run restarts
        # from generation zero and persists iteration 1 again.
        outcome = run_schedule(fuzz_schedule(seed))
        assert outcome.ok, (outcome.invariant, outcome.violation)

    def test_a_persist_below_the_restart_point_still_fails(self):
        from types import SimpleNamespace

        from repro.core.events import TimelineEvent, TimelineKind

        monitor = InvariantMonitor()
        monitor.on_tier_persist(2, SimpleNamespace(iteration=30), False)
        monitor._on_timeline_event(TimelineEvent(
            1.0, TimelineKind.TIER_RESTORE,
            {"hit": True, "level": 2, "iteration": 20}))
        monitor.on_tier_persist(2, SimpleNamespace(iteration=20), False)
        with pytest.raises(InvariantViolation,
                           match="iteration 19 after iteration 20"):
            monitor.on_tier_persist(2, SimpleNamespace(iteration=19), False)

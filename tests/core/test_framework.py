"""End-to-end framework tests: the full ACR control flow of Figures 4 and 5.

These run the complete stack — DES runtime, consensus, heartbeats, PUP
checkpoints, bit-flip injection, recovery schemes — on real (scaled-down)
application state, and check *semantic* outcomes: bit-correct results,
detection/vulnerability behaviour per scheme, and recovery accounting.
"""

import numpy as np
import pytest

from repro.core import ACR, ACRConfig
from repro.core.events import TimelineKind
from repro.faults import FaultEvent, FaultKind, InjectionPlan
from repro.model import ResilienceScheme
from repro.util.errors import ConfigurationError

HORIZON = 3000.0
EVENTS = 20_000_000


def run(app="jacobi3d-charm", nodes=4, plan=None, **cfg_overrides):
    defaults = dict(checkpoint_interval=2.0, total_iterations=150,
                    tasks_per_node=1, app_scale=1e-4, seed=7, spare_nodes=16)
    defaults.update(cfg_overrides)
    config = ACRConfig(**defaults)
    acr = ACR(app, nodes_per_replica=nodes, config=config,
              injection_plan=plan or InjectionPlan())
    report = acr.run(until=HORIZON, max_events=EVENTS)
    return acr, report


class TestFailureFree:
    def test_completes_with_correct_result(self):
        _, report = run()
        assert report.completed
        assert report.result_correct
        assert report.rework_iterations == 0
        assert report.hard_detected == 0 and report.sdc_detected == 0

    def test_replicas_agree_bitwise(self):
        _, report = run()
        assert np.array_equal(report.digests[0], report.digests[1])

    def test_periodic_checkpoints_happen(self):
        _, report = run(total_iterations=400, checkpoint_interval=3.0)
        assert report.checkpoints_completed >= 4

    def test_deterministic_across_runs(self):
        _, a = run(seed=9)
        _, b = run(seed=9)
        assert a.final_time == b.final_time
        assert a.checkpoints_completed == b.checkpoints_completed
        assert np.array_equal(a.digests[0], b.digests[0])

    def test_app_kwargs_reach_the_final_checks(self):
        # The final checkpoint is unpacked into a scratch app and checked
        # against a reference app: both are built with the run's app_kwargs.
        config = ACRConfig(checkpoint_interval=2.0, total_iterations=12,
                           tasks_per_node=1, app_scale=1.0, seed=7)
        acr = ACR("synthetic", nodes_per_replica=4, config=config,
                  app_kwargs={"elements_per_node": 64})
        assert acr.apps[0].state.size == 4 * 64
        report = acr.run(until=HORIZON, max_events=EVENTS)
        assert report.completed and report.result_correct
        assert acr.store.safe(0).iteration == 12
        assert np.array_equal(report.digests[0], acr.apps[0].result_digest())

    def test_checkpoint_overhead_accounted(self):
        _, report = run(total_iterations=400, checkpoint_interval=3.0)
        assert report.checkpoint_time > 0
        assert report.overhead_fraction < 0.5


class TestSDCDetectionAndRecovery:
    def plan(self):
        return InjectionPlan([
            FaultEvent(time=3.0, kind=FaultKind.SDC, replica=0, node_id=1),
        ])

    def test_sdc_detected_and_rolled_back(self):
        _, report = run(plan=self.plan())
        assert report.sdc_injected == 1
        assert report.sdc_detected == 1
        assert report.rollbacks >= 1
        assert report.recoveries.get("sdc") == 1
        assert report.completed and report.result_correct

    def test_sdc_in_replica1_also_detected(self):
        plan = InjectionPlan([
            FaultEvent(time=3.0, kind=FaultKind.SDC, replica=1, node_id=0),
        ])
        _, report = run(plan=plan)
        assert report.sdc_detected == 1
        assert report.result_correct

    def test_checksum_mode_detects_too(self):
        _, report = run(plan=self.plan(), use_checksum=True)
        assert report.sdc_detected == 1
        assert report.result_correct

    def test_multiple_sdc_all_corrected(self):
        plan = InjectionPlan([
            FaultEvent(time=t, kind=FaultKind.SDC, replica=t_i % 2, node_id=t_i % 4)
            for t_i, t in enumerate((2.5, 6.5, 11.0))
        ])
        _, report = run(plan=plan, total_iterations=300)
        assert report.sdc_injected == 3
        assert report.sdc_detected >= 3
        assert report.result_correct

    def test_timeline_records_detection(self):
        _, report = run(plan=self.plan())
        assert report.timeline.of_kind(TimelineKind.SDC_DETECTED)
        assert report.timeline.of_kind(TimelineKind.ROLLBACK)


@pytest.mark.parametrize("scheme", ["strong", "medium", "weak"])
class TestHardErrorRecovery:
    def plan(self):
        return InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=1, node_id=2),
        ])

    def test_recovers_and_finishes_correctly(self, scheme):
        _, report = run(plan=self.plan(), scheme=ResilienceScheme(scheme))
        assert report.hard_injected == 1
        assert report.hard_detected == 1
        assert report.recoveries.get(scheme) == 1
        assert report.completed
        assert report.result_correct
        assert report.spare_nodes_used == 1

    def test_detection_via_heartbeat_delay(self, scheme):
        _, report = run(plan=self.plan(), scheme=ResilienceScheme(scheme))
        injected = report.timeline.times_of(TimelineKind.HARD_FAULT_INJECTED)[0]
        detected = report.timeline.times_of(TimelineKind.HARD_FAULT_DETECTED)[0]
        assert detected > injected
        assert detected - injected <= 4 * 0.5 + 0.5 + 1e-6

    def test_failure_in_other_replica_symmetric(self, scheme):
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=0, node_id=0),
        ])
        _, report = run(plan=plan, scheme=ResilienceScheme(scheme))
        assert report.completed and report.result_correct


class TestSchemeSemantics:
    def test_strong_reworks_most(self):
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=1, node_id=2),
        ])
        results = {}
        for scheme in ("strong", "medium", "weak"):
            _, report = run(plan=plan, scheme=ResilienceScheme(scheme),
                            total_iterations=300)
            results[scheme] = report
        assert results["strong"].rework_iterations > results["medium"].rework_iterations
        assert results["strong"].rework_iterations > results["weak"].rework_iterations

    def test_vulnerability_window_medium_and_weak(self):
        # The §2.3 trade-off, end to end: an SDC in the healthy replica right
        # before a hard error is silently adopted by medium/weak, but caught
        # by strong.  (LeanMD trajectories are chaotic, so corruption cannot
        # wash out numerically as it does in the contracting Jacobi solve.)
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.SDC, replica=0, node_id=1),
            FaultEvent(time=6.0, kind=FaultKind.HARD, replica=1, node_id=2),
        ])
        outcomes = {}
        for scheme in ("strong", "medium", "weak"):
            _, report = run(app="leanmd", plan=plan, nodes=4,
                            scheme=ResilienceScheme(scheme),
                            checkpoint_interval=10.0, total_iterations=400,
                            app_scale=2e-3, seed=11)
            outcomes[scheme] = report
        assert outcomes["strong"].sdc_detected == 1
        assert outcomes["strong"].result_correct
        for scheme in ("medium", "weak"):
            assert outcomes[scheme].sdc_detected == 0
            assert outcomes[scheme].result_correct is False
            # Both replicas agree on the corrupted state: silent corruption.
            assert np.array_equal(outcomes[scheme].digests[0],
                                  outcomes[scheme].digests[1])

    def test_weak_healthy_replica_zero_rework(self):
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=1, node_id=2),
        ])
        acr, report = run(plan=plan, scheme=ResilienceScheme.WEAK,
                          total_iterations=300)
        # The healthy replica never rolls back under weak recovery.
        healthy_rework = sum(
            max(t.iterations_executed - t.progress, 0) for t in acr.tasks[0]
        )
        assert healthy_rework == 0


class TestDoubleFailures:
    def test_second_failure_during_recovery_rolls_back_both(self):
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=1, node_id=2),
            FaultEvent(time=5.3, kind=FaultKind.HARD, replica=0, node_id=1),
        ])
        _, report = run(plan=plan, scheme=ResilienceScheme.MEDIUM,
                        total_iterations=300)
        assert report.hard_detected == 2
        assert report.completed and report.result_correct
        assert report.recoveries.get("double-failure", 0) >= 1

    def test_weak_buddy_failure_restarts_from_beginning(self):
        # §2.3: "If the failure happens on the buddy node of the crashed node
        # ... application needs to restart from the beginning."
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=1, node_id=2),
            FaultEvent(time=8.0, kind=FaultKind.HARD, replica=0, node_id=2),
        ])
        _, report = run(plan=plan, scheme=ResilienceScheme.WEAK,
                        checkpoint_interval=30.0, total_iterations=300)
        assert report.recoveries.get("restart-from-beginning", 0) == 1
        assert report.completed and report.result_correct

    def test_weak_non_buddy_failure_rolls_back_to_checkpoint(self):
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=1, node_id=2),
            FaultEvent(time=8.0, kind=FaultKind.HARD, replica=0, node_id=0),
        ])
        _, report = run(plan=plan, scheme=ResilienceScheme.WEAK,
                        checkpoint_interval=30.0, total_iterations=300)
        assert report.recoveries.get("double-failure", 0) == 1
        assert "restart-from-beginning" not in report.recoveries
        assert report.completed and report.result_correct


class TestSpareNodePool:
    def test_pool_exhaustion_aborts(self):
        plan = InjectionPlan([
            FaultEvent(time=3.0 + i * 4.0, kind=FaultKind.HARD,
                       replica=(i % 2), node_id=i % 4)
            for i in range(4)
        ])
        _, report = run(plan=plan, spare_nodes=2, total_iterations=100_000)
        assert report.aborted_reason == "spare node pool exhausted"
        assert not report.completed
        assert report.spare_nodes_used == 2

    def test_faults_on_dead_nodes_ignored(self):
        plan = InjectionPlan([
            FaultEvent(time=5.0, kind=FaultKind.HARD, replica=1, node_id=2),
            FaultEvent(time=5.1, kind=FaultKind.HARD, replica=1, node_id=2),
        ])
        _, report = run(plan=plan, scheme=ResilienceScheme.STRONG,
                        total_iterations=300)
        assert report.hard_injected == 1


class TestFaultsDuringProtocolPhases:
    def test_fault_during_consensus_aborts_and_recovers(self):
        # Interval 2.0 -> consensus around t=2.0; kill a node right then.
        plan = InjectionPlan([
            FaultEvent(time=2.0, kind=FaultKind.HARD, replica=0, node_id=3),
        ])
        acr, report = run(plan=plan, total_iterations=300)
        assert report.completed and report.result_correct
        assert acr.consensus.rounds_aborted >= 0  # protocol survived either way

    def test_many_random_faults_still_correct(self):
        # Stress: mixed SDC + hard faults at awkward times.
        events = []
        for i, t in enumerate((1.7, 4.1, 6.9, 9.3, 13.0)):
            kind = FaultKind.SDC if i % 2 else FaultKind.HARD
            events.append(FaultEvent(time=t, kind=kind, replica=i % 2,
                                     node_id=(2 * i) % 4))
        for scheme in ("strong", "medium", "weak"):
            _, report = run(plan=InjectionPlan(events),
                            scheme=ResilienceScheme(scheme),
                            total_iterations=400)
            assert report.completed, scheme
            assert report.aborted_reason is None


class TestAdaptiveMode:
    def test_interval_recorded_and_clamped(self):
        plan = InjectionPlan([
            FaultEvent(time=t, kind=FaultKind.HARD, replica=0, node_id=1)
            for t in (3.0, 5.0, 8.0)
        ])
        _, report = run(plan=plan, adaptive=True, adaptive_initial_interval=2.0,
                        adaptive_min_interval=1.0, adaptive_max_interval=30.0,
                        total_iterations=600, scheme=ResilienceScheme.MEDIUM)
        assert report.interval_history
        assert all(1.0 <= v <= 30.0 for _, v in report.interval_history)
        assert report.completed and report.result_correct

    def test_interval_history_single_source_of_truth(self):
        # The controller owns the history; the report is a copy of it and the
        # timeline's INTERVAL_ADAPTED events mirror it one-for-one.
        plan = InjectionPlan([
            FaultEvent(time=t, kind=FaultKind.HARD, replica=0, node_id=1)
            for t in (3.0, 5.0, 8.0)
        ])
        acr, report = run(plan=plan, adaptive=True, adaptive_initial_interval=2.0,
                          adaptive_min_interval=1.0, adaptive_max_interval=30.0,
                          total_iterations=600, scheme=ResilienceScheme.MEDIUM)
        assert report.interval_history == acr.adaptive.interval_history
        adapted = [(e.time, e.detail["interval"])
                   for e in report.timeline.of_kind(TimelineKind.INTERVAL_ADAPTED)]
        assert adapted == report.interval_history


class TestValidation:
    def test_bad_node_count(self):
        with pytest.raises(ConfigurationError):
            ACR("jacobi3d-charm", nodes_per_replica=0)

    def test_report_iterations_completed(self):
        _, report = run(total_iterations=150)
        assert report.iterations_completed == 150

"""Second-failure cascades: deaths in every protocol phase, every scheme.

These scenarios were seeded from minimized chaos-fuzzer schedules (PR's
`repro chaos` sweep): each places a first fault inside a specific protocol
phase and a second one in the recovery / weak-pending window the first
opens, then requires the run to finish bit-correct under full invariant
monitoring.  The paper's §2.3 claims exactly this: any two-failure burst
that leaves one safe checkpoint intact is survivable.
"""

from dataclasses import replace

import pytest

from repro.chaos import ChaosSchedule, probe_phase_windows, run_schedule
from repro.faults import FaultEvent, FaultKind

SCHEMES = ("strong", "medium", "weak")

#: Every lineage copy is checked against a recompute (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("verify_lineage")

#: Buddy heartbeat detection latency (interval 0.5s, timeout factor 4).
DETECTION = 2.0


def cascade_schedule(scheme, events, *, async_ckpt=False):
    return ChaosSchedule(
        seed=2, app="synthetic", nodes_per_replica=2, scheme=scheme,
        async_checkpointing=async_ckpt, use_checksum=False,
        checkpoint_interval=2.0, total_iterations=600, tasks_per_node=1,
        spare_nodes=16, horizon=600.0, events=tuple(events),
        modes=("cascade",) * len(events))


def windows_for(scheme, *, async_ckpt=False):
    probe = cascade_schedule(scheme, (), async_ckpt=async_ckpt)
    windows = probe_phase_windows(probe)
    assert windows.consensus and windows.pack_transfer \
        and windows.checkpoint_done
    return windows


def run_and_require_correct(schedule):
    outcome = run_schedule(schedule)
    assert outcome.ok, (outcome.invariant, outcome.violation)
    assert outcome.completed, outcome.aborted_reason
    assert outcome.hard_detected >= outcome.hard_injected
    return outcome


def hard(time, replica, rank=0):
    return FaultEvent(time=time, kind=FaultKind.HARD, replica=replica,
                      node_id=rank)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestCascades:
    def test_buddy_pair_dead_during_consensus(self, scheme):
        # Both copies of rank 0 die inside a consensus round: the watchdog
        # must sweep every dead node with a live detector.
        windows = windows_for(scheme)
        a, b = windows.consensus[1]
        t = (a + b) / 2
        run_and_require_correct(cascade_schedule(
            scheme, [hard(t, 0), hard(t + 0.01, 1)]))

    def test_second_death_during_pack_transfer_recovery(self, scheme):
        # First death lands mid pack/transfer; the second hits the *other*
        # replica while the first recovery is still in flight.
        windows = windows_for(scheme)
        a, b = windows.pack_transfer[1]
        t = (a + b) / 2
        run_and_require_correct(cascade_schedule(
            scheme, [hard(t, 0), hard(t + DETECTION * 1.5, 1, rank=1)]))

    def test_second_death_right_after_checkpoint(self, scheme):
        # Post-commit death followed by its buddy: the fresh checkpoint is
        # the rollback target and both replicas must reconverge on it.
        windows = windows_for(scheme)
        done = windows.checkpoint_done[1]
        run_and_require_correct(cascade_schedule(
            scheme, [hard(done + 0.05, 1), hard(done + 0.2, 0)]))

    def test_second_death_during_async_transfer(self, scheme):
        # Semi-blocking mode: the app resumes while the transfer/compare tail
        # runs in the background — deaths in that tail must still converge.
        windows = windows_for(scheme, async_ckpt=True)
        a, b = windows.pack_transfer[1]
        run_and_require_correct(cascade_schedule(
            scheme,
            [hard(a + 0.9 * (b - a), 0),
             hard(a + 0.9 * (b - a) + DETECTION, 1)],
            async_ckpt=True))


class TestWeakShipmentDivergence:
    def test_second_failure_during_weak_pending_window(self):
        # The weak scheme's hardest path (Fig. 5d): the healthy replica
        # checkpoints alone, and the victim dies *again* before the shipped
        # checkpoint lands.  Safe generations must not stay diverged.
        windows = windows_for("weak")
        a, b = windows.pack_transfer[0]
        t = (a + b) / 2
        run_and_require_correct(cascade_schedule(
            "weak",
            [hard(t, 0), hard(t + DETECTION * 2.0, 0)]))

    def test_triple_cascade_same_rank(self):
        windows = windows_for("weak")
        done = windows.checkpoint_done[0]
        run_and_require_correct(cascade_schedule(
            "weak",
            [hard(done + 0.1, 0), hard(done + 0.1 + DETECTION, 1),
             hard(done + 0.1 + 3 * DETECTION, 0)]))


class TestMinimizedFuzzerRepro:
    """The minimized plan `repro chaos` produced against the pre-fix
    watchdog (seed 65 shrunk to two faults) — kept as a regression test."""

    PLAN = {
        "seed": 65, "app": "jacobi3d-charm", "nodes_per_replica": 4,
        "scheme": "weak", "async_checkpointing": True,
        "use_checksum": False, "checkpoint_interval": 4.3979986292882,
        "total_iterations": 51, "tasks_per_node": 2, "spare_nodes": 16,
        "horizon": 155.45153779086786,
        "events": [
            {"time": 2.6498283579950455, "kind": "sdc", "replica": 1,
             "node_id": 1},
            {"time": 2.6498513098345846, "kind": "hard", "replica": 0,
             "node_id": 1},
        ],
        "modes": ["buddy-pair", "buddy-pair"],
    }

    def test_fixed_watchdog_survives_minimized_plan(self):
        outcome = run_schedule(ChaosSchedule.from_dict(self.PLAN))
        assert outcome.ok, (outcome.invariant, outcome.violation)
        assert outcome.completed
        # The SDC lands right before the buddy's hard fault, so the solo
        # weak-pending checkpoint commits it uncompared: this plan sits in
        # the paper's documented vulnerability window (§2.3, §5).
        assert outcome.sdc_injected > outcome.sdc_detected

    def test_plan_replays_bitwise(self):
        sched = ChaosSchedule.from_dict(self.PLAN)
        first = run_schedule(sched)
        again = run_schedule(replace(sched))
        assert first.fingerprint == again.fingerprint


class TestMediumVulnerabilityWindow:
    """Minimized from fuzzer seed 211: a crash on one replica followed by an
    SDC on the *healthy* replica before detection.  The medium recovery
    commits the healthy (corrupted) state solo and installs it for both —
    the paper's documented §2.3/§5 exposure, which the monitor must excuse
    rather than flag as a protocol bug."""

    PLAN = {
        "seed": 211, "app": "jacobi3d-charm", "nodes_per_replica": 4,
        "scheme": "medium", "async_checkpointing": False,
        "use_checksum": True, "checkpoint_interval": 4.711047059034765,
        "total_iterations": 53, "tasks_per_node": 2, "spare_nodes": 16,
        "horizon": 159.08305877297792,
        "events": [
            {"time": 2.1300750169010727, "kind": "hard", "replica": 1,
             "node_id": 2},
            {"time": 2.754550220973227, "kind": "sdc", "replica": 0,
             "node_id": 3},
        ],
        "modes": ["chained", "chained"],
    }

    def test_window_is_excused_not_flagged(self):
        outcome = run_schedule(ChaosSchedule.from_dict(self.PLAN))
        assert outcome.ok, (outcome.invariant, outcome.violation)
        assert outcome.completed
        assert outcome.sdc_injected > outcome.sdc_detected
        assert outcome.recoveries.get("medium") == 1

"""SDC escalation: comparison keeps failing after rollback.

After more than three consecutive SDC rollbacks the rollback target itself
is suspect.  Both replicas then install one identical generation: the
newest intact durable-tier generation when tiers are configured, else the
launch state (generation zero).  The run must still end bit-correct.
"""

import pytest

import repro.core.framework as framework_mod
from repro.core.config import ACRConfig
from repro.core.events import TimelineKind
from repro.core.framework import ACR
from repro.core.sdc import SDCScanResult
from repro.faults.injector import InjectionPlan
from repro.storage.tiers import default_tiers

TIERS = default_tiers(tier2_interval=1.0, tier3_interval=2.0)


def force_comparison_failures(monkeypatch, failing):
    """Make the ``failing`` (1-based) ``detect_sdc`` calls report a mismatch."""
    real = framework_mod.detect_sdc
    calls = []

    def forced(*args, **kwargs):
        calls.append(None)
        if len(calls) in failing:
            return SDCScanResult(clean=False, mismatched_ranks={0})
        return real(*args, **kwargs)

    monkeypatch.setattr(framework_mod, "detect_sdc", forced)


def run_escalation(monkeypatch, storage_tiers):
    # Two clean checkpoints (so tiers hold a generation past zero), then
    # four failed comparisons in a row: the fourth rollback escalates.
    force_comparison_failures(monkeypatch, (3, 4, 5, 6))
    config = ACRConfig(checkpoint_interval=2.0, total_iterations=300,
                       seed=2, spare_nodes=16, storage_tiers=storage_tiers)
    acr = ACR("synthetic", nodes_per_replica=2, config=config,
              injection_plan=InjectionPlan())
    installed = []

    def on_event(event):
        if (event.kind is TimelineKind.ROLLBACK
                and event.detail["reason"] == "sdc-escalation"):
            installed.append((acr.store.safe(0), acr.store.safe(1),
                              acr.apps[0].iteration, acr.apps[1].iteration))

    acr.timeline.subscribe(on_event)
    report = acr.run(until=600.0)
    assert len(installed) == 1
    return acr, report, installed[0]


def same_bytes(a, b):
    return all(a.shards[r].buffer.tobytes() == b.shards[r].buffer.tobytes()
               for r in a.shards) and a.shards.keys() == b.shards.keys()


@pytest.mark.parametrize("tiers", [(), TIERS], ids=["no-tiers", "tiers"])
def test_escalation_recovers_and_finishes_correct(monkeypatch, tiers):
    acr, report, (safe0, safe1, it0, it1) = run_escalation(monkeypatch, tiers)
    assert report.recoveries == {"sdc": 3, "sdc-escalation": 1}
    assert report.sdc_detected == 4 and report.rollbacks == 4
    # Both replicas hold one identical generation and restarted from it.
    assert safe0.iteration == safe1.iteration == it0 == it1
    assert safe0.lineage == safe1.lineage
    assert same_bytes(safe0, safe1)
    assert report.completed and report.result_correct is True


def test_escalation_without_tiers_restarts_from_the_initial_generation(
        monkeypatch):
    acr, report, (safe0, safe1, _, _) = run_escalation(monkeypatch, ())
    assert safe0.iteration == 0
    assert same_bytes(safe0, acr._initial_gen[0])
    assert report.timeline.of_kind(TimelineKind.TIER_RESTORE) == []


def test_escalation_with_tiers_prefers_the_newest_durable_generation(
        monkeypatch):
    acr, report, (safe0, _, _, _) = run_escalation(monkeypatch, TIERS)
    restores = report.timeline.of_kind(TimelineKind.TIER_RESTORE)
    assert len(restores) == 1 and restores[0].detail["hit"] is True
    assert safe0.iteration == restores[0].detail["iteration"] > 0
    assert report.storage_counters["tier2.restore_hits"] \
        + report.storage_counters["tier3.restore_hits"] == 1
    assert report.phase_times[f"recovery.tier{restores[0].detail['level']}"
                              "-read"] > 0.0

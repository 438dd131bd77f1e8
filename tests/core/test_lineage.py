"""Replica lineage: replica 2 copies replica 1's state while their tokens match.

Sharing is an optimisation only.  Every run here must report exactly what a
run that recomputes every replica reports, and the ``verify_lineage``
fixture (tests/conftest.py) checks each copy against an independent
recompute.  docs/protocols.md, "Replica lineage", has the rules.
"""

import pytest

from repro.apps.base import ReplicaApp
from repro.apps.registry import make_app
from repro.core.config import ACRConfig
from repro.core.events import TimelineKind
from repro.core.framework import ACR
from repro.faults import FaultEvent, FaultKind, InjectionPlan
from repro.model.schemes import ResilienceScheme
from repro.storage.tiers import default_tiers
from repro.store.serialization import report_to_dict
from repro.util.hashing import canonical_digest

APPS = ("lulesh", "hpccg", "jacobi3d-charm", "jacobi3d-ampi", "minimd",
        "leanmd", "synthetic")
SCHEMES = tuple(ResilienceScheme)


def _recompute(self, replica, source):
    self.apps[replica].advance_to(self.apps[source].iteration)


def run(app, config, events=(), *, share=True, nodes=2):
    """One ACR run; ``share=False`` recomputes every replica."""
    with pytest.MonkeyPatch.context() as mp:
        if not share:
            mp.setattr(ACR, "_copy_replica_state", _recompute)
        acr = ACR(app, nodes_per_replica=nodes, config=config,
                  injection_plan=InjectionPlan(list(events)))
        report = acr.run()
    return acr, report


def digest(report):
    return canonical_digest(report_to_dict(report))


def sdc(time, replica=0, rank=0):
    return FaultEvent(time=time, kind=FaultKind.SDC, replica=replica,
                      node_id=rank)


def hard(time, replica=1, rank=1):
    return FaultEvent(time=time, kind=FaultKind.HARD, replica=replica,
                      node_id=rank)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("app", APPS)
def test_faulted_run_per_app(app, scheme, verify_lineage):
    """One SDC, then one hard fault: every copy matches a recompute, and
    the run is bit-correct and reports what a recomputing run reports."""
    step = make_app(app, 2, scale=0.005).descriptor.base_iteration_seconds
    config = ACRConfig(scheme=scheme, checkpoint_interval=4 * step,
                       total_iterations=30, app_scale=0.005,
                       heartbeat_interval=0.05, spare_boot_time=0.1, seed=5)
    events = [sdc(6 * step), hard(30 * step)]
    _, report = run(app, config, events)
    assert report.completed and report.result_correct
    assert report.sdc_detected == 1 and report.hard_detected == 1
    assert verify_lineage, "no replica state was shared"
    _, recomputed = run(app, config, events, share=False)
    assert digest(report) == digest(recomputed)


# -- SDC timing ---------------------------------------------------------------------
CONFIG = ACRConfig(checkpoint_interval=0.2, total_iterations=30, seed=3)
APP = "jacobi3d-charm"


@pytest.fixture(scope="module")
def windows():
    """Fault-free decision and checkpoint-done times, and the pack delay.

    A flip changes no timing until it is detected, so these hold in a
    faulted run up to its first detection."""
    acr, report = run(APP, CONFIG)
    decided = report.timeline.times_of(TimelineKind.CONSENSUS_DECIDED)
    done = report.timeline.times_of(TimelineKind.CHECKPOINT_DONE)
    assert len(decided) == len(done) >= 4
    return decided, done, acr.cost.pack_time(acr.profile)


def check_same_as_recompute(events, copies):
    acr, report = run(APP, CONFIG, events)
    _, recomputed = run(APP, CONFIG, events, share=False)
    assert report.sdc_detected == recomputed.sdc_detected
    assert digest(report) == digest(recomputed)
    assert report.completed and report.result_correct
    return acr, report, list(copies)


def rollback_time(report):
    (t,) = report.timeline.times_of(TimelineKind.ROLLBACK)
    return t


def test_flip_on_source_inside_pack_window(windows, verify_lineage):
    """Replica 2 has already copied replica 1's state; replica 1 is hit
    before the pack.  The pack records the forked token, the compare
    catches it, and sharing resumes after the rollback."""
    decided, _, pack_t = windows
    t = decided[1] + pack_t / 2
    _, report, copies = check_same_as_recompute([sdc(t, replica=0)],
                                                verify_lineage)
    assert any(now == decided[1] for now, _, _ in copies)
    assert report.sdc_detected == 1
    assert any(now > rollback_time(report) for now, _, _ in copies)


def test_flip_after_pack_before_compare(windows, verify_lineage):
    """The generation is clean and commits; the live state is forked, so
    the next checkpoint recomputes both replicas and detects the flip."""
    decided, done, pack_t = windows
    t = (decided[1] + pack_t + done[1]) / 2
    _, report, copies = check_same_as_recompute([sdc(t, replica=0)],
                                                verify_lineage)
    assert report.sdc_detected == 1
    assert report.timeline.times_of(TimelineKind.SDC_DETECTED)[0] > done[1]
    assert not any(t < now < rollback_time(report) for now, _, _ in copies)
    assert any(now > rollback_time(report) for now, _, _ in copies)


def test_undetected_flip_keeps_lineage_forked(windows, verify_lineage):
    """A flip after the final pack is never compared: the report is built
    from the verified generations, and the victim's lineage stays forked
    (no restore follows), so nothing is shared after the flip."""
    decided, done, pack_t = windows
    t = (decided[-1] + pack_t + done[-1]) / 2
    acr, report, copies = check_same_as_recompute([sdc(t, replica=1)],
                                                  verify_lineage)
    assert report.sdc_detected == 0 and report.sdc_injected == 1
    assert acr._lineage[0] != acr._lineage[1]
    assert copies and all(now < t for now, _, _ in copies)


# -- sharing is per instance; the reference never adopts --------------------------
def count_advances(monkeypatch):
    counts = []
    original = ReplicaApp.advance_to

    def counted(self, iteration):
        counts.append(iteration - self.iteration)
        original(self, iteration)

    monkeypatch.setattr(ReplicaApp, "advance_to", counted)
    return counts


def test_second_instance_advances_as_much_as_the_first(monkeypatch):
    counts = count_advances(monkeypatch)
    run(APP, CONFIG)
    once = sum(counts)
    run(APP, CONFIG)
    assert sum(counts) - once == once
    counts.clear()
    run(APP, CONFIG, share=False)
    assert once < sum(counts)


def test_finalize_reference_never_adopts(monkeypatch):
    built, adopted = [], []
    original_make = make_app
    original_copy = ReplicaApp.copy_state_from

    def tracked_make(*args, **kwargs):
        app = original_make(*args, **kwargs)
        built.append(app)
        return app

    def tracked_copy(self, other):
        adopted.extend((self, other))
        original_copy(self, other)

    monkeypatch.setattr("repro.core.framework.make_app", tracked_make)
    monkeypatch.setattr(ReplicaApp, "copy_state_from", tracked_copy)
    acr, report = run(APP, CONFIG, [sdc(1.0)])
    assert report.result_correct
    replicas = {id(acr.apps[0]), id(acr.apps[1])}
    assert adopted and {id(a) for a in adopted} == replicas
    # Built after the replicas: the final-digest scratch app and the
    # reference, one each.
    finalize_apps = [a for a in built if id(a) not in replicas]
    assert len(finalize_apps) == 2
    assert not {id(a) for a in finalize_apps} & {id(a) for a in adopted}


def test_tier_restore_mints_one_shared_token():
    config = CONFIG.with_overrides(storage_tiers=default_tiers(
        tier2_interval=0.3, tier3_interval=1.0))
    acr, report = run(APP, config)
    assert report.completed
    tokens = set(acr._lineage)
    first = acr._restore_from_storage()
    second = acr._restore_from_storage()
    assert first.lineage is not None and first.lineage not in tokens
    assert second.lineage not in tokens | {first.lineage}
    assert acr.store.clone_generation(first).lineage == first.lineage

"""Byte-level pins on the recovery paths: span structure and run report.

Each scenario drives one recovery path of ``ACR`` on a small ``synthetic``
run with the span tracer and metrics registry on, and pins three SHA-256
digests:

* the Chrome trace (:meth:`SpanTracer.to_chrome_trace`, serialized with
  its key order intact), so span names, nesting, ids, start/end times and
  attributes of every recovery, rollback and transfer span are fixed;
* the canonical digest of :func:`report_to_dict` with the simulator's own
  metrics (``sim.*``) set aside, so timeline order, ``recoveries`` and
  ``phase_times`` keys and the float accumulation order of
  ``checkpoint_time`` / ``recovery_time`` are fixed;
* the canonical digest of those ``sim.*`` metrics (events processed and
  scheduled, cohorts, queue depths, fast-forward windows and rounds).

The scenarios cover each scheme with one hard fault, an SDC rollback, a
second failure during a recovery and during an SDC rollback, failures
inside the weak-pending window (buddy and non-buddy), a failure during the
weak shipment, a tier restore, deaths inside synchronous and asynchronous
checkpoints, and the SDC escalation with and without durable tiers.  A
refactor of the recovery machinery must leave every digest unchanged; a
deliberate behaviour change must re-record them and say why.  Together
the report and ``sim.*`` digests pin every byte of the report; a change
to the event engine that moves only the simulator's own counters
re-records one ``sim.*`` digest per scenario, and the trace and report
digests show that nothing else moved.
"""

import hashlib
import json

import pytest

import repro.core.framework as framework_mod
from repro.core.config import ACRConfig
from repro.core.framework import ACR
from repro.core.sdc import SDCScanResult
from repro.faults.injector import FaultEvent, FaultKind, InjectionPlan
from repro.model.schemes import ResilienceScheme
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer
from repro.storage.tiers import default_tiers
from repro.store.serialization import report_to_dict
from repro.util.hashing import canonical_digest

TIERS = default_tiers(tier2_interval=1.0, tier3_interval=2.0)


def hard(t, replica, rank=0):
    return FaultEvent(time=t, kind=FaultKind.HARD, replica=replica,
                      node_id=rank)


def sdc(t, replica, rank=0):
    return FaultEvent(time=t, kind=FaultKind.SDC, replica=replica,
                      node_id=rank)


#: Heartbeats every 5 ms detect a death within ~25 ms, so it lands inside
#: the short protocol phase (pack, transfer, SDC rollback, weak shipment)
#: it was injected in, instead of ~2 s later.
FAST_HEARTBEAT = {"heartbeat_interval": 0.005}

#: name -> (scheme, fault events, ACRConfig overrides, failing comparisons)
#: where "failing comparisons" are the 1-based ``detect_sdc`` calls forced
#: to report a mismatch (the escalation needs four in a row).
SCENARIOS = {
    "strong-hard": ("strong", [hard(3.1, 1, 1)], {}, ()),
    "medium-hard": ("medium", [hard(3.1, 1, 1)], {}, ()),
    "weak-hard": ("weak", [hard(3.1, 1, 1)], {}, ()),
    "sdc-rollback": ("strong", [sdc(3.1, 0, 1)], {}, ()),
    "medium-second-during-recovery": (
        "medium", [hard(3.1, 1, 1), hard(5.3, 0, 0)], {}, ()),
    "strong-second-during-recovery": (
        "strong", [hard(3.1, 0, 0), hard(3.11, 1, 0)], {}, ()),
    "second-during-sdc-rollback": (
        "strong", [sdc(0.3, 0, 1), hard(2.0993, 1, 0)], FAST_HEARTBEAT, ()),
    "weak-pending-non-buddy": (
        "weak", [hard(3.1, 1, 1), hard(3.5, 0, 0)], {}, ()),
    "weak-pending-buddy": (
        "weak", [hard(3.1, 1, 1), hard(3.5, 0, 1)], {}, ()),
    "weak-second-during-shipment": (
        "weak", [hard(3.1, 1, 1), hard(5.25, 0, 0)], FAST_HEARTBEAT, ()),
    "tier-restore": (
        "weak", [hard(3.1, 0, 0), hard(3.11, 1, 0)],
        {"storage_tiers": TIERS}, ()),
    "strong-death-during-checkpoint": (
        "strong", [hard(2.03, 1, 1)], FAST_HEARTBEAT, ()),
    "strong-death-during-async-transfer": (
        "strong", [hard(2.05, 1, 1)],
        {**FAST_HEARTBEAT, "async_checkpointing": True}, ()),
    "strong-death-during-persist": (
        "strong", [hard(2.1, 1, 1)],
        {**FAST_HEARTBEAT, "storage_tiers": TIERS}, ()),
    "sdc-escalation": ("strong", [], {}, (3, 4, 5, 6)),
    "sdc-escalation-tiers": (
        "strong", [], {"storage_tiers": TIERS}, (3, 4, 5, 6)),
}

#: name -> (trace sha256, report canonical digest without ``sim.*``,
#: ``sim.*`` canonical digest).
PINS = {
    "medium-hard": (
        "6758115f6d10ec068e853ee6db33e4ebd5f4e9163aa34a65b8ec35a818e46740",
        "430e90523b29b6cd5e0cfa682599d3188523d390578a71a89db11aa348c3de36",
        "ffee58fa78b3992771a00e31fd0cf8dfd7e8e9b5de10c1142dc6c28b01bf39d4"),
    "medium-second-during-recovery": (
        "6076664c04566d1fa65c7e53bca2ed4b8bd694b08c6e40583cd8798e88e5dc2c",
        "de94870511085deadcb6c1c93b21d6ad00b4569d1d94118297c6a7959705422c",
        "c37daa332bea4816a31f6542dbf90ce54645b47f3e0e59a8d659943a2bba3bc4"),
    "sdc-escalation": (
        "dfe35701d957f813021446c9fa0e678e93b5204f4675750b5781f5fa86aecaa1",
        "94162cc8950f45365d80040c1e876289c1097ce006c1e18571e9cec8148fd646",
        "106edea90a8579a9f3251f0320e0cf652fb4c11fcaf00b7679166f04e5f17865"),
    "sdc-escalation-tiers": (
        "6ad15767c21a9bb5c2c4ec9b6a8b81b8115d1d82ddedc38189285bc1ebc070e9",
        "35ab2cebf0e7dd62362e101aa3722e16c92d4dae0b4056636e27118ea2c59507",
        "6d771f5da8253fbca0304490b329b5ef6fc7d1700780329f3699f025183c25ab"),
    "sdc-rollback": (
        "4fab774a4ab1c0c9e3b5cdb08d19de4087690d48761331015c1f03b428f31cfc",
        "d8fe0e6d4430f48c2bb9778a4158f4bdade597b094d50313d92c341589db93cf",
        "ce79b0411f25d6aa35ff0fc9d4a5c890ded334f9122f17c35ef707ec7542b95d"),
    "second-during-sdc-rollback": (
        "49fdeef30c4b13e5bc2c89897aa9e5278c0faf7732bca829748bd8495901b163",
        "331a83cc87e72a9d9ec1264beb86af64c315916a711595727d520cb6e83190bf",
        "00d404eaf6fce98c517000a346d348cd45c9f235722c56a044f0f0abfbffcc72"),
    "strong-death-during-async-transfer": (
        "3aa7a73f46d0c582ce04a03cd881635d9e7d9d92713a320befde2c5c0a54839b",
        "299e934aed4b1580f94bc3a02738130de5aa9fa12b599a1be67cf149379daa5e",
        "bdff2ef621624538930fd403c757e48d9a11a6d7681d754962a4081fdd085760"),
    "strong-death-during-checkpoint": (
        "3112fe0a4e5723fc09e0c1aded3e898812679a974ef439fcd46f342b43b4eae8",
        "2367dd379ae95032545f411e119a0ce1c9bccad167bb4d0c6281a4ba28aef849",
        "207c9c257ca5e8f1972df70bf2da6cb83353a87ca4c6ae420d2018e6802077d9"),
    "strong-death-during-persist": (
        "3e4a37d2cc4a28fa91d76190bb89c78a1e8ee69d75dbe985167d71eb13bf2e6c",
        "652cd1811fce922763f80e8624980071f7ed0b4805830974f11a425eacd67c9a",
        "852945107facd6bdf8b3a19d6aa11b1f9d5282be93cb2cf3b242e8dd07d79a1f"),
    "strong-hard": (
        "1388915e379ba88364d057d2c16f308c5d00e361f200aac31f1002eff209c872",
        "bc833c78821ad6c806435c63931f5e6973f631957163327acac6386112cc6da8",
        "d4a3185fbc89c9a3d92bd4a802b86af72c158189a51d85575d549fd246752534"),
    "strong-second-during-recovery": (
        "c69661fef63b1d555f0ea76f0a0b3d02b7725990cc406de7679cd8eef7bf6b0c",
        "cdab4464764c294269cb6ed3dc965e6821024bc40b04545c363f87a7b5366b15",
        "f11ae6c3813c530559eac2d9a8b48a57e02541617ef8c9dc59a13c015b5538ca"),
    "tier-restore": (
        "4e50a756dc3d47e0b0e1bcbca5808a6cd2308c5bd78392766d8b6a423a1db88c",
        "62712b609a88eee5b4b486618cf5801a8968fb362e885915de944ed20408252e",
        "d3ef067c4406f5506fdc77180bdc2ed7231021e5594af2aeeae532bc65ec5bac"),
    "weak-hard": (
        "a92d7fbb3cad4195b5ed794d6bf1ef6f0fa77a8def68806f4be6a156cc2d2fc3",
        "a4a5f327c7510d8ea9cdae13e2d55154098cbfc52cb37baf24736cb582fbdb28",
        "95d95ce91dfa9f54cf8630c14d24dc891cabb49c0bb120801ec65d76abe23bdb"),
    "weak-pending-buddy": (
        "3ff7e373ade282d0dc8f8d790af633b5cb8928cdb722da25f5c87001ba4d453a",
        "d6da280f34e0214cc277f696c6491f742986aca7fcbed768249ee236c141cf93",
        "1f5efe8e645f5b5a83de1b3fa007d31a61825874d8bc15d420c8a1549dbaed03"),
    "weak-pending-non-buddy": (
        "eb1cb2e2f8422571a7262fe80f7161283639f8df6143a0a98f6fc4928839b6fb",
        "5a6b82a91d6762284abf67ac378cea3d4a9fa5ab7f41689a14e5153be218bc25",
        "7b604e18bb7fee423f593735fcb8cfa6f7067ad2bed3f146246121fda897ca69"),
    "weak-second-during-shipment": (
        "226a19d05a01565f84918a387d34baabed769725abda64a67878114e4f41aebe",
        "bb250d5fb144e2fe74b2146ebf3f89b3011f66bc10f6b8163bcb127603f3e837",
        "ece8c8661c76a432ebb5cddc756a63a57fdb9b69364d53195c7f826c2a7bc2f3"),
}


def run_scenario(name, monkeypatch):
    scheme, events, overrides, failing = SCENARIOS[name]
    if failing:
        real = framework_mod.detect_sdc
        calls = []

        def forced(*args, **kwargs):
            calls.append(None)
            if len(calls) in failing:
                return SDCScanResult(clean=False, mismatched_ranks={0})
            return real(*args, **kwargs)

        monkeypatch.setattr(framework_mod, "detect_sdc", forced)
    config = ACRConfig(scheme=ResilienceScheme(scheme),
                       checkpoint_interval=2.0, total_iterations=300,
                       seed=2, spare_nodes=16, **overrides)
    tracer = SpanTracer()
    acr = ACR("synthetic", nodes_per_replica=2, config=config,
              injection_plan=InjectionPlan(list(events)), tracer=tracer,
              metrics=MetricsRegistry())
    report = acr.run(until=600.0)
    return acr, report, tracer


def split_sim_metrics(payload):
    """``payload`` without the ``sim.*`` metrics, and those metrics."""
    snapshot = payload["metrics_snapshot"]
    rest, sim = {}, {}
    for section, values in snapshot.items():
        rest[section] = {k: v for k, v in values.items()
                         if not k.startswith("sim.")}
        sim[section] = {k: v for k, v in values.items()
                        if k.startswith("sim.")}
    return {**payload, "metrics_snapshot": rest}, sim


def digests(report, tracer):
    trace = json.dumps(tracer.to_chrome_trace()).encode("utf-8")
    payload, sim = split_sim_metrics(report_to_dict(report))
    return (hashlib.sha256(trace).hexdigest(), canonical_digest(payload),
            canonical_digest(sim))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_path_is_pinned(name, monkeypatch):
    acr, report, tracer = run_scenario(name, monkeypatch)
    assert report.completed and report.result_correct
    assert tracer.open_spans == 0
    assert digests(report, tracer) == PINS[name]


@pytest.mark.parametrize("scheme", ["strong", "medium", "weak"])
def test_superseded_double_failure_span_names_from_scratch(scheme):
    """A third failure supersedes a double-failure recovery; both
    double-failure spans carry ``from_scratch`` from the moment they open."""
    config = ACRConfig(scheme=ResilienceScheme(scheme),
                       checkpoint_interval=2.0, total_iterations=300,
                       seed=2, spare_nodes=16, **FAST_HEARTBEAT)
    tracer = SpanTracer()
    acr = ACR("synthetic", nodes_per_replica=4, config=config,
              injection_plan=InjectionPlan(
                  [hard(3.1, 1, 1), hard(4.0, 0, 0), hard(4.5, 0, 2)]),
              tracer=tracer)
    report = acr.run(until=600.0)
    assert report.completed and report.result_correct
    superseded, last = tracer.by_name("recovery.double-failure")
    assert superseded.attrs["superseded"] is True
    assert superseded.attrs["from_scratch"] is False
    assert last.attrs["from_scratch"] is False

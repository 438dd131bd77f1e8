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
        "d27950175b5b9436d0e104f43475718db0ac63386a0fe0817683ff06212d546a"),
    "medium-second-during-recovery": (
        "6076664c04566d1fa65c7e53bca2ed4b8bd694b08c6e40583cd8798e88e5dc2c",
        "de94870511085deadcb6c1c93b21d6ad00b4569d1d94118297c6a7959705422c",
        "c39fa8d25409b578043581dac6b5ac4bda5720ab989aca06dfbba323fa1566c1"),
    "sdc-escalation": (
        "dfe35701d957f813021446c9fa0e678e93b5204f4675750b5781f5fa86aecaa1",
        "94162cc8950f45365d80040c1e876289c1097ce006c1e18571e9cec8148fd646",
        "c10a3469a935a0798683cc7bd56492f53822b286288e4b0fbf84e8d953c46249"),
    "sdc-escalation-tiers": (
        "6ad15767c21a9bb5c2c4ec9b6a8b81b8115d1d82ddedc38189285bc1ebc070e9",
        "35ab2cebf0e7dd62362e101aa3722e16c92d4dae0b4056636e27118ea2c59507",
        "71868ecde722672d803fb9370dba913a817d86b06042ad0292e7993b0464deae"),
    "sdc-rollback": (
        "4fab774a4ab1c0c9e3b5cdb08d19de4087690d48761331015c1f03b428f31cfc",
        "d8fe0e6d4430f48c2bb9778a4158f4bdade597b094d50313d92c341589db93cf",
        "57c2b8e1d29c826144c84f7bb297e948387e1df6c077e7bb9133ed4e56e167e7"),
    "second-during-sdc-rollback": (
        "49fdeef30c4b13e5bc2c89897aa9e5278c0faf7732bca829748bd8495901b163",
        "331a83cc87e72a9d9ec1264beb86af64c315916a711595727d520cb6e83190bf",
        "dd88b23f4fbb6b1021d1d6616840f2adb29d20fe24997af1abebf3d03eeadb20"),
    "strong-death-during-async-transfer": (
        "3aa7a73f46d0c582ce04a03cd881635d9e7d9d92713a320befde2c5c0a54839b",
        "299e934aed4b1580f94bc3a02738130de5aa9fa12b599a1be67cf149379daa5e",
        "b9b86e9e66db81d3520f7d29ac9022fe0310fa3ac1e44c2e2aee5ebfec347eeb"),
    "strong-death-during-checkpoint": (
        "3112fe0a4e5723fc09e0c1aded3e898812679a974ef439fcd46f342b43b4eae8",
        "2367dd379ae95032545f411e119a0ce1c9bccad167bb4d0c6281a4ba28aef849",
        "75656269f5857115ca61ff6ad8bfdab6d63c17f802a2c6e38abeb76dcb3ee9b7"),
    "strong-death-during-persist": (
        "3e4a37d2cc4a28fa91d76190bb89c78a1e8ee69d75dbe985167d71eb13bf2e6c",
        "652cd1811fce922763f80e8624980071f7ed0b4805830974f11a425eacd67c9a",
        "5110671e207651d3c2203be475640067e549b9e425eb150976887931fd235947"),
    "strong-hard": (
        "1388915e379ba88364d057d2c16f308c5d00e361f200aac31f1002eff209c872",
        "bc833c78821ad6c806435c63931f5e6973f631957163327acac6386112cc6da8",
        "5ae6487fcdf3a51dfe885ed4a19409d4b31d4be240f43a7a8030a4475f1a9a2b"),
    "strong-second-during-recovery": (
        "c69661fef63b1d555f0ea76f0a0b3d02b7725990cc406de7679cd8eef7bf6b0c",
        "cdab4464764c294269cb6ed3dc965e6821024bc40b04545c363f87a7b5366b15",
        "87a6350e62ab89edba3b6d83aeed8c0a55dc2e6d842b4db2bf4d6142db084cf4"),
    "tier-restore": (
        "4e50a756dc3d47e0b0e1bcbca5808a6cd2308c5bd78392766d8b6a423a1db88c",
        "62712b609a88eee5b4b486618cf5801a8968fb362e885915de944ed20408252e",
        "93d2512d01ace47f03bccb2f03a94cbe3cf2e43128d79f96599b5e20f6768727"),
    "weak-hard": (
        "a92d7fbb3cad4195b5ed794d6bf1ef6f0fa77a8def68806f4be6a156cc2d2fc3",
        "a4a5f327c7510d8ea9cdae13e2d55154098cbfc52cb37baf24736cb582fbdb28",
        "4017a309f92274b325cf02040c55c0d68d5cf6bf8b0e1a9bacf9575b3397cc55"),
    "weak-pending-buddy": (
        "3ff7e373ade282d0dc8f8d790af633b5cb8928cdb722da25f5c87001ba4d453a",
        "d6da280f34e0214cc277f696c6491f742986aca7fcbed768249ee236c141cf93",
        "579310c38a66b070f198667f1d28ef2a3c62de0be4792007208783b19a8602ff"),
    "weak-pending-non-buddy": (
        "eb1cb2e2f8422571a7262fe80f7161283639f8df6143a0a98f6fc4928839b6fb",
        "5a6b82a91d6762284abf67ac378cea3d4a9fa5ab7f41689a14e5153be218bc25",
        "cd8d6baf662ecb7c66b475965fcc17c25893daf5f413c36cdd9d990d7ead3421"),
    "weak-second-during-shipment": (
        "226a19d05a01565f84918a387d34baabed769725abda64a67878114e4f41aebe",
        "bb250d5fb144e2fe74b2146ebf3f89b3011f66bc10f6b8163bcb127603f3e837",
        "e89932749005c801c93f906ed1ad1fbb8f6ce807161802789f8f59209774fa72"),
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

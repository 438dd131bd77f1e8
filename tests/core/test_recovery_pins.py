"""Byte-level pins on the recovery paths: span structure and run report.

Each scenario drives one recovery path of ``ACR`` on a small ``synthetic``
run with the span tracer and metrics registry on, and pins two SHA-256
digests:

* the Chrome trace (:meth:`SpanTracer.to_chrome_trace`, serialized with
  its key order intact), so span names, nesting, ids, start/end times and
  attributes of every recovery, rollback and transfer span are fixed;
* the canonical digest of :func:`report_to_dict`, so timeline order,
  ``recoveries`` and ``phase_times`` keys and the float accumulation order
  of ``checkpoint_time`` / ``recovery_time`` are fixed.

The scenarios cover each scheme with one hard fault, an SDC rollback, a
second failure during a recovery and during an SDC rollback, failures
inside the weak-pending window (buddy and non-buddy), a failure during the
weak shipment, a tier restore, deaths inside synchronous and asynchronous
checkpoints, and the SDC escalation with and without durable tiers.  A
refactor of the recovery machinery must leave every digest unchanged; a
deliberate behaviour change must re-record them and say why.
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

#: name -> (trace sha256, report canonical digest).
PINS = {
    "medium-hard": (
        "6758115f6d10ec068e853ee6db33e4ebd5f4e9163aa34a65b8ec35a818e46740",
        "5dbdbc8d180c395d584560f0c4d143a5181240b47c00806844f78ea980cc78b0"),
    "medium-second-during-recovery": (
        "6076664c04566d1fa65c7e53bca2ed4b8bd694b08c6e40583cd8798e88e5dc2c",
        "ac74df622efe5068b9df3180e69f68215b34dfc222272ea9690ea0b86208c8ab"),
    "sdc-escalation": (
        "dfe35701d957f813021446c9fa0e678e93b5204f4675750b5781f5fa86aecaa1",
        "7d80d9b52a5baef141dfc799fc641211683772c4cd0bf0b08a223a2ce2d93c0e"),
    "sdc-escalation-tiers": (
        "6ad15767c21a9bb5c2c4ec9b6a8b81b8115d1d82ddedc38189285bc1ebc070e9",
        "f67097d6be13dfaf8b4a34ac31ce3898089ebf4f736160502dc1db741e48d294"),
    "sdc-rollback": (
        "4fab774a4ab1c0c9e3b5cdb08d19de4087690d48761331015c1f03b428f31cfc",
        "11c312a425ac80b2d4017ac5794b8203d1cfdbb487ce85d33ca6c88f5cb5c457"),
    "second-during-sdc-rollback": (
        "49fdeef30c4b13e5bc2c89897aa9e5278c0faf7732bca829748bd8495901b163",
        "18a7397aeddb3e49181af286a2725c456a3b81dff5ff7930fd1dfd5239c5def5"),
    "strong-death-during-async-transfer": (
        "3aa7a73f46d0c582ce04a03cd881635d9e7d9d92713a320befde2c5c0a54839b",
        "d871072a0af68236b1e151519b507372632e3c56f32bab869e593eb15a0a24fe"),
    "strong-death-during-checkpoint": (
        "3112fe0a4e5723fc09e0c1aded3e898812679a974ef439fcd46f342b43b4eae8",
        "1f0d9f7b8b11b4f67e039e199f33b8efe8827ce5ce7a1b6d8df904f5cf99ef25"),
    "strong-death-during-persist": (
        "3e4a37d2cc4a28fa91d76190bb89c78a1e8ee69d75dbe985167d71eb13bf2e6c",
        "1335a317e7a0f7589d33e9527526d477b939c81791ef498f3233bb345168e739"),
    "strong-hard": (
        "1388915e379ba88364d057d2c16f308c5d00e361f200aac31f1002eff209c872",
        "784ed7c81afe7532172e684a9d25bb81266e5dec577450baf897e10584253183"),
    "strong-second-during-recovery": (
        "c69661fef63b1d555f0ea76f0a0b3d02b7725990cc406de7679cd8eef7bf6b0c",
        "531b9b338c7cfec8e7442706508e65f16c54030b5e51dc129655112202c054de"),
    "tier-restore": (
        "4e50a756dc3d47e0b0e1bcbca5808a6cd2308c5bd78392766d8b6a423a1db88c",
        "8f67226b290a24667f1c404e01a3d696cd5093c413611617741f3acdac44b3f8"),
    "weak-hard": (
        "a92d7fbb3cad4195b5ed794d6bf1ef6f0fa77a8def68806f4be6a156cc2d2fc3",
        "da01980eda19b2a4f13f52c45883b0b99db1769ab08dad779000f834cf5e4e91"),
    "weak-pending-buddy": (
        "3ff7e373ade282d0dc8f8d790af633b5cb8928cdb722da25f5c87001ba4d453a",
        "82c632bdcd7663afe6a0edd22f4a9de9dd52bb0aa8b0bc4a71f96742d3187a9e"),
    "weak-pending-non-buddy": (
        "eb1cb2e2f8422571a7262fe80f7161283639f8df6143a0a98f6fc4928839b6fb",
        "0a618bc07f590e89a502eb13df16b9898f9da0fee1654a5ea63864a3a5059d80"),
    "weak-second-during-shipment": (
        "226a19d05a01565f84918a387d34baabed769725abda64a67878114e4f41aebe",
        "198a72f695603294f787dd68ab88ec5379c90df55a9c93abffceb8710340ff85"),
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


def digests(report, tracer):
    trace = json.dumps(tracer.to_chrome_trace()).encode("utf-8")
    return (hashlib.sha256(trace).hexdigest(),
            canonical_digest(report_to_dict(report)))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_path_is_pinned(name, monkeypatch):
    acr, report, tracer = run_scenario(name, monkeypatch)
    assert report.completed and report.result_correct
    assert tracer.open_spans == 0
    assert digests(report, tracer) == PINS[name]

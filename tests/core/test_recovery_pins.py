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
deliberate behaviour change must re-record them and say why.  The report
payload carries the metrics snapshot, so the simulator's own counters
(``sim.*``: events processed, fast-forward windows and rounds) are pinned
too; a change to the event engine that moves only those re-records the
report digests after checking that every trace and everything outside
``sim.*`` is unchanged.
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
        "e79d66a0239ab66a10bfd1da548b0b9f9669c8c50a20665918fbb2348213ad4f"),
    "medium-second-during-recovery": (
        "6076664c04566d1fa65c7e53bca2ed4b8bd694b08c6e40583cd8798e88e5dc2c",
        "080b28351a32de9f3e9f8af063c51388cf1f510c9e833b03914503c8ac05b2f1"),
    "sdc-escalation": (
        "dfe35701d957f813021446c9fa0e678e93b5204f4675750b5781f5fa86aecaa1",
        "35d662c8adc65dce2795074c141d1d8fda4768b8941b5848a16f99d8e2eb292f"),
    "sdc-escalation-tiers": (
        "6ad15767c21a9bb5c2c4ec9b6a8b81b8115d1d82ddedc38189285bc1ebc070e9",
        "eaac2e79a19c20c65bb572de023808f4e652a5eb382cc5e835b1204e48012d43"),
    "sdc-rollback": (
        "4fab774a4ab1c0c9e3b5cdb08d19de4087690d48761331015c1f03b428f31cfc",
        "bf57775de4aa93c9dabd296da808c8cc158932c91255e019cce648597e286598"),
    "second-during-sdc-rollback": (
        "49fdeef30c4b13e5bc2c89897aa9e5278c0faf7732bca829748bd8495901b163",
        "d9ec3bfa2a4a65ed4d5d40a27623098ab3088df394d10e88dd6b71522e83f1e4"),
    "strong-death-during-async-transfer": (
        "3aa7a73f46d0c582ce04a03cd881635d9e7d9d92713a320befde2c5c0a54839b",
        "086378ef794ab064d18b112c60843ede911cacc6511706f73b695619d2ab734f"),
    "strong-death-during-checkpoint": (
        "3112fe0a4e5723fc09e0c1aded3e898812679a974ef439fcd46f342b43b4eae8",
        "9788be0dad77599662dc96ae2d820e2b441b7284fccd668f75713d6b13b0c63e"),
    "strong-death-during-persist": (
        "3e4a37d2cc4a28fa91d76190bb89c78a1e8ee69d75dbe985167d71eb13bf2e6c",
        "aa485dcffc6cebc30664267743adca87ee63821424562b06222899e9296b70c1"),
    "strong-hard": (
        "1388915e379ba88364d057d2c16f308c5d00e361f200aac31f1002eff209c872",
        "839cea783a55cad4b304a25bbca938cd7c26dcd4836ca11fc043d17f12abf34c"),
    "strong-second-during-recovery": (
        "c69661fef63b1d555f0ea76f0a0b3d02b7725990cc406de7679cd8eef7bf6b0c",
        "6a049a6bc825f8fd2ae33a72f780f7efd2a104b5c351445bfc727ce25eaa6aac"),
    "tier-restore": (
        "4e50a756dc3d47e0b0e1bcbca5808a6cd2308c5bd78392766d8b6a423a1db88c",
        "c140dba622218139baf1c6760b820444c39e54cdb6d78c1ff88e21421b6d0f91"),
    "weak-hard": (
        "a92d7fbb3cad4195b5ed794d6bf1ef6f0fa77a8def68806f4be6a156cc2d2fc3",
        "355b2df9fd3bcfa9a68cea9c80320a8e99757fecab2e80ff2b66a6c7b9c1c592"),
    "weak-pending-buddy": (
        "3ff7e373ade282d0dc8f8d790af633b5cb8928cdb722da25f5c87001ba4d453a",
        "2541a1ed3bd0fc09b311da633608b929221f397d7ef3ceb77939dce1d7ff7844"),
    "weak-pending-non-buddy": (
        "eb1cb2e2f8422571a7262fe80f7161283639f8df6143a0a98f6fc4928839b6fb",
        "dc2097b776529d50a0bf1ec09a4dbfd503b023350359b17439dc1fc619b45520"),
    "weak-second-during-shipment": (
        "226a19d05a01565f84918a387d34baabed769725abda64a67878114e4f41aebe",
        "5db326576364d8c792c38a7b56f4d78acf87f82e2266b727c3693ad10a92a368"),
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

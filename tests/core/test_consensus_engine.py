"""Consensus rounds evaluated whole against the message path.

Every scenario runs twice: as is, and with ``RoundEngine.eligible`` patched
to refuse every round, so each round ships its ``4n-2`` control messages as
heap events.  The two executions must agree on everything observable: the
report digest, every metric outside the ``sim.*`` family, the sampled
series columns, the transport counters and the Chrome trace.  Only the
simulator's own counters may differ.  Docs: docs/protocols.md §1.
"""

import contextlib
import json

import numpy as np
import pytest

from repro.chaos.fuzzer import fuzz_schedule
from repro.chaos.runner import run_schedule
from repro.core import ACR, ACRConfig
from repro.core.consensus import ConsensusController, RoundEngine
from repro.core.events import TimelineKind
from repro.faults import FaultEvent, FaultKind, InjectionPlan
from repro.model import ResilienceScheme
from repro.obs import MetricsRegistry, TimeSeriesRecorder
from repro.obs.tracer import SpanTracer
from repro.runtime.des import Simulator
from repro.runtime.messages import Transport
from repro.runtime.ring import RingFastForward
from repro.runtime.soa import TaskTable
from repro.storage.tiers import default_tiers
from repro.store.serialization import report_to_dict
from repro.util.hashing import canonical_digest


@pytest.fixture
def message_path(monkeypatch):
    """A context in which every consensus round runs message by message."""

    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as m:
            m.setattr(RoundEngine, "eligible", lambda self, scope: False)
            yield

    return scope


def _without_sim(values: dict) -> dict:
    return {k: v for k, v in values.items() if not k.startswith("sim.")}


def _transport(transport) -> tuple:
    return (transport.messages_sent, transport.messages_delivered,
            transport.messages_dropped, dict(transport.sent_by_kind),
            dict(transport.bytes_by_kind), transport.batched_messages,
            transport.batch_events)


# -- bare rounds over one fast-forwarded ring ----------------------------------------------
class Bare:
    """``n_nodes`` nodes of ``tpn`` tasks in one ring, a controller over them
    and a span tracer; the ring is fast-forwarded from the start."""

    def __init__(self, n_nodes: int, *, tpn: int = 2, skew: float = 0.3,
                 tau: float = 0.1):
        self.sim = sim = Simulator()
        self.transport = transport = Transport(sim)
        #: The node ids.
        self.nodes = list(range(n_nodes))
        total = n_nodes * tpn

        def iteration_time(task_id, it):
            return tau * (1.0 + skew * ((task_id * 13 + it * 7) % 10) / 10)

        ids = np.arange(total)

        def row_times(first, count):
            its = np.arange(first, first + count)[:, None]
            return tau * (1.0 + skew * ((ids * 13 + its * 7) % 10) / 10)

        self.table = table = TaskTable(sim, transport, n_nodes,
                                       tasks_per_node=tpn,
                                       iteration_time=iteration_time)
        self.tasks = table.tasks(0)
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        self.controller = ConsensusController(table)
        self.controller.tracer = self.tracer
        self.controller.metrics = self.metrics
        self.ring = RingFastForward(table, 0, sim=sim, transport=transport,
                                    row_times=row_times)
        sim.return_hooks.append(self.ring.refresh)
        assert self.ring.open_start()
        self.done = []

    def round(self, at: float, until: float) -> None:
        self.sim.run(until=at)
        self.controller.start_round(
            self.nodes,
            lambda rid, it: self.done.append((self.sim.now, rid, it)))
        self.sim.run(until=until)

    def observe(self) -> dict:
        return {
            "done": self.done,
            "tasks": [(t.progress, t.state, t.pause_at, t.busy_until,
                       t.iterations_executed, dict(t.dep_stamps))
                      for t in self.tasks],
            "transport": _transport(self.transport),
            "trace": json.dumps(self.tracer.to_chrome_trace()),
            "metrics": self.metrics.snapshot(),
        }


@pytest.mark.parametrize("n_nodes,tpn,skew", [
    (1, 1, 0.3), (1, 3, 0.3), (2, 2, 0.3), (3, 1, 0.3), (16, 2, 0.9),
    (31, 1, 0.3), (33, 2, 0.3)])
def test_bare_round_scopes(message_path, n_nodes, tpn, skew):
    def run():
        bare = Bare(n_nodes, tpn=tpn, skew=skew)
        bare.round(2.05, 4.0)
        # A second round after resuming every task from the engine's parked
        # ring (or, on the message path, from the paused tasks).
        if bare.ring.open:
            assert bare.ring.resume()
        else:
            for t in bare.tasks:
                t.resume()
        bare.round(5.33, 9.0)
        return bare

    fast = run()
    with message_path():
        slow = run()
    assert fast.observe() == slow.observe()
    assert len(fast.done) == 2
    engine = fast.controller.engine
    assert engine.rounds == 2 and engine.fallbacks == 0 and engine.ties == 0
    assert fast.sim.events_processed < slow.sim.events_processed
    assert slow.controller.engine.rounds == 0


@pytest.mark.parametrize("phase", range(4))
def test_bare_round_death_in_each_phase(message_path, phase):
    """A node dies inside phase ``phase``; the round is aborted a little
    later, its stale messages drain, and a fresh round runs to the end."""

    def run():
        bare = Bare(16, tpn=2)
        sim, controller = bare.sim, bare.controller
        sim.run(until=2.05)
        controller.start_round(bare.nodes,
                               lambda rid, it: bare.done.append(it))
        t0, d = sim.now, bare.transport.small_delay(64)
        # Depth 4: the start flood ends at t0 + 5d and the decision at the
        # root comes about 5d later; the drain takes most of an iteration.
        at = {0: t0 + 2.5 * d, 1: t0 + 7.5 * d, 2: t0 + 12.5 * d,
              3: t0 + 0.05}[phase]
        sim.run(until=at)
        bare.table.kill(9)
        sim.run(until=at + 0.2)
        controller.abort_round()
        sim.run(until=3.0)
        bare.transport.set_alive(9, True)
        controller.start_round(bare.nodes,
                               lambda rid, it: bare.done.append(it))
        sim.run(until=6.0)
        return bare

    fast = run()
    with message_path():
        slow = run()
    assert fast.observe() == slow.observe()
    assert fast.controller.engine.fallbacks == 1
    assert fast.controller.engine.ties == 0


@pytest.mark.parametrize("phase", range(4))
def test_bare_round_abort_in_each_phase(message_path, phase):
    """The round is abandoned inside phase ``phase`` with every node alive:
    the engine releases its parked ring where it stands (some tasks held,
    some released, some not reached yet), the message path resumes each
    task; a second round then runs to the end."""

    def run():
        bare = Bare(16, tpn=2)
        sim, controller = bare.sim, bare.controller
        sim.run(until=2.05)
        controller.start_round(bare.nodes,
                               lambda rid, it: bare.done.append(it))
        t0, d = sim.now, bare.transport.small_delay(64)
        at = {0: t0 + 2.5 * d, 1: t0 + 7.5 * d, 2: t0 + 12.5 * d,
              3: t0 + 0.05}[phase]
        sim.run(until=at)
        controller.abort_round()
        sim.run(until=3.0)
        controller.start_round(bare.nodes,
                               lambda rid, it: bare.done.append(it))
        sim.run(until=6.0)
        return bare

    fast = run()
    with message_path():
        slow = run()
    assert fast.observe() == slow.observe()
    assert fast.ring.open and fast.ring.syncs == 0
    assert fast.controller.engine.ties == fast.ring.ties == 0


@pytest.mark.parametrize("tick", range(19))
def test_bare_round_abort_with_iterations_as_short_as_messages(message_path,
                                                                tick):
    """Iterations of a few control delays: holds, releases, pauses and
    stamp arrivals interleave, so an abort ``tick`` half-delays into the
    round (off the flood instants) finds tasks in every mix of held,
    released, paused and running."""

    def run():
        bare = Bare(8, tpn=2, skew=0.9, tau=2e-5)
        sim, controller = bare.sim, bare.controller
        sim.run(until=0.001)
        controller.start_round(bare.nodes,
                               lambda rid, it: bare.done.append(it))
        t0, d = sim.now, bare.transport.small_delay(64)
        sim.run(until=t0 + (tick + 0.5) * d / 2)
        controller.abort_round()
        sim.run(until=t0 + 0.0006)
        controller.start_round(bare.nodes,
                               lambda rid, it: bare.done.append(it))
        sim.run(until=t0 + 0.002)
        return bare

    fast = run()
    with message_path():
        slow = run()
    assert fast.observe() == slow.observe()
    assert len(fast.done) == 1
    assert fast.controller.engine.ties == fast.ring.ties == 0


# -- whole runs ------------------------------------------------------------------------------
def observe(acr: ACR, report, tracer: SpanTracer) -> dict:
    payload = report_to_dict(report)
    snapshot = payload.pop("metrics_snapshot")
    series = payload.pop("series")
    return {
        "report_digest": canonical_digest(payload),
        "metrics": {family: _without_sim(values)
                    for family, values in snapshot.items()},
        "series": {"times": series["times"],
                   "counters": _without_sim(series["counters"]),
                   "gauges": _without_sim(series["gauges"])},
        "transport": _transport(acr.transport),
        "trace": json.dumps(tracer.to_chrome_trace()),
        "counters": dict(snapshot["counters"]),
        "timeline": report.timeline,
    }


def run_cell(*, plan=None, nodes=4, until=5000.0, **overrides) -> dict:
    config = dict(total_iterations=60, checkpoint_interval=1.0, seed=3,
                  app_scale=1e-4, spare_nodes=50, tasks_per_node=2)
    config.update(overrides)
    tracer = SpanTracer()
    acr = ACR("jacobi3d-charm", nodes_per_replica=nodes,
              config=ACRConfig(**config),
              injection_plan=plan or InjectionPlan(), tracer=tracer,
              metrics=MetricsRegistry(),
              series=TimeSeriesRecorder(interval=0.5))
    return observe(acr, acr.run(until=until), tracer)


def both(message_path, **kwargs) -> dict:
    fast = run_cell(**kwargs)
    with message_path():
        slow = run_cell(**kwargs)
    for key in ("report_digest", "metrics", "series", "transport", "trace"):
        assert fast[key] == slow[key], key
    counters = fast["counters"]
    assert counters["sim.fast_forward.rounds"] >= 1
    assert counters["sim.fast_forward.round_ties"] == 0
    assert counters["sim.fast_forward.ties"] == 0
    assert slow["counters"]["sim.fast_forward.rounds"] == 0
    return fast


@pytest.mark.parametrize("scheme", list(ResilienceScheme),
                         ids=lambda s: s.value)
def test_schemes_with_a_hard_fault_and_an_sdc(message_path, scheme):
    plan = InjectionPlan([
        FaultEvent(1.3, FaultKind.HARD, replica=0, node_id=1),
        FaultEvent(2.1, FaultKind.SDC, replica=1, node_id=2),
    ])
    both(message_path, plan=plan, scheme=scheme)


def test_solo_weak_pending_round(message_path):
    # The crashed replica waits for the next periodic checkpoint, which the
    # healthy replica takes alone.
    plan = InjectionPlan([FaultEvent(1.3, FaultKind.HARD, replica=0,
                                     node_id=1)])
    fast = both(message_path, plan=plan, scheme=ResilienceScheme.WEAK,
                heartbeat_interval=0.05)
    assert any(e.kind is TimelineKind.CHECKPOINT_DONE
               and e.detail["compared"] is False
               for e in fast["timeline"].events)


def _first_round(**overrides):
    """(start, decision, last decision, completion) of the first round."""
    fast = run_cell(**overrides)
    spans = {}
    for e in json.loads(fast["trace"])["traceEvents"]:
        if e.get("ph") == "X" and e["name"].startswith("consensus."):
            spans.setdefault(e["name"], e)
    us = 1e-6
    start = spans["consensus.reduce_max"]["ts"] * us
    decided = start + spans["consensus.reduce_max"]["dur"] * us
    last_decision = decided + spans["consensus.broadcast"]["dur"] * us
    rnd = spans["consensus.round"]
    done = (rnd["ts"] + rnd["dur"]) * us
    return start, decided, last_decision, done


@pytest.mark.parametrize("phase", ["start", "max", "decision", "ready"])
def test_hard_fault_in_each_phase(message_path, phase):
    d = Transport(Simulator()).small_delay(64)
    start, decided, last_decision, done = _first_round()
    at = {"start": start + 1.5 * d,        # the start flood (depth 3)
          "max": decided - 1.5 * d,        # the max reduction
          "decision": decided + 1.5 * d,   # the decision flood
          "ready": (last_decision + done) / 2}[phase]
    plan = InjectionPlan([FaultEvent(at, FaultKind.HARD, replica=1,
                                     node_id=3)])
    fast = both(message_path, plan=plan, heartbeat_interval=0.05)
    assert fast["counters"]["sim.fast_forward.round_fallbacks"] >= 1


def test_sdc_mid_round(message_path):
    start, _, _, done = _first_round()
    plan = InjectionPlan([FaultEvent((start + done) / 2, FaultKind.SDC,
                                     replica=0, node_id=2)])
    fast = both(message_path, plan=plan)
    assert fast["counters"]["acr.sdc_detected"] >= 1


def test_storage_tiers(message_path):
    plan = InjectionPlan([
        FaultEvent(2.5, FaultKind.HARD, replica=0, node_id=0),
        FaultEvent(2.51, FaultKind.HARD, replica=1, node_id=0),
    ])
    both(message_path, plan=plan, scheme=ResilienceScheme.WEAK,
         storage_tiers=default_tiers(tier2_interval=1.0, tier3_interval=2.0))


def test_async_checkpointing_and_odd_replicas(message_path):
    both(message_path, nodes=3, async_checkpointing=True, tasks_per_node=1,
         plan=InjectionPlan([FaultEvent(1.7, FaultKind.HARD, replica=1,
                                        node_id=2)]))


def test_chaos_fingerprints(message_path):
    fast = [run_schedule(fuzz_schedule(seed)) for seed in range(200)]
    with message_path():
        slow = [run_schedule(fuzz_schedule(seed)) for seed in range(200)]
    for seed, (a, b) in enumerate(zip(fast, slow)):
        assert a.ok and b.ok, seed
        assert a.fingerprint == b.fingerprint, seed
        assert a.metrics["counters"]["sim.fast_forward.round_ties"] == 0, seed
    assert sum(a.metrics["counters"]["sim.fast_forward.rounds"]
               for a in fast) > 0


# -- reading and ending a run in the middle of an evaluated round ---------------------------
def _build() -> ACR:
    return ACR("jacobi3d-charm", nodes_per_replica=4,
               config=ACRConfig(total_iterations=60, checkpoint_interval=1.0,
                                tasks_per_node=2, app_scale=1e-4, seed=3),
               metrics=MetricsRegistry())


def _state(acr: ACR) -> dict:
    snapshot = acr.metrics_snapshot()
    return {
        "tasks": [(t.task_id, t.progress, t.state, t.epoch, t.pause_at,
                   dict(t.dep_stamps), t.busy_until, t.iterations_executed)
                  for r in (0, 1) for t in acr.tasks[r]],
        "soa": acr.task_table.progress.tolist(),
        "transport": _transport(acr.transport),
        "decided": acr.consensus.decided_iteration,
        "active": acr.consensus.active,
        "metrics": {family: _without_sim(values)
                    for family, values in snapshot.items()},
    }


def test_mid_round_reads_and_an_abort(message_path):
    start, decided, last_decision, done = _first_round()
    d = Transport(Simulator()).small_delay(64)
    instants = (start + 0.5 * d, start + 2.5 * d, decided + 0.5 * d,
                (last_decision + done) / 2)

    def run():
        acr = _build()
        acr.start()
        seen = []
        for t in instants:
            acr.sim.run(until=t)
            seen.append(_state(acr))
        acr._abort("stopped mid-round")
        seen.append(_state(acr))
        return acr, seen

    fast, fast_seen = run()
    with message_path():
        slow, slow_seen = run()
    assert fast_seen == slow_seen
    engine = fast.consensus.engine
    # The reads left the round in the engine; the end of the job did not.
    assert engine.rounds == 1 and engine.fallbacks == 1 and engine.ties == 0
    assert [s["active"] for s in fast_seen] == [True] * 5
    assert fast_seen[1]["decided"] is None and fast_seen[2]["decided"] >= 1

"""Large-N observable-equivalence oracle for the scale overhaul.

The vectorized heartbeat sweeps (reading liveness through the transport's
numpy view, with one "death reported" flag per node) and the batched
dependency-stamp fan-outs are only legal because nothing observable changes.
This drives a 4096-node world (both replicas, ring tasks, mid-run node
deaths and revivals) twice — once on the optimized runtime, once against
embedded per-object replicas of the pre-overhaul implementations — and
asserts the *full* observable record matches:

* every death-detection callback (instant, detector, victim, order);
* every task-progress report (instant, node, its tasks' max progress);
* final per-node last-seen clocks, as each monitor records them;
* transport counter totals (sent / delivered / dropped, per-kind tallies).

The legacy side also routes dependency stamps through per-message
``send_small`` calls (the loop :meth:`Transport.send_stamps` batched away),
so the fan-out batching claim is exercised at scale too, not just asserted
in a docstring.  The one quantity that *should* differ is heap load:
batching must strictly reduce events processed.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.runtime.des import PeriodicHandle, Simulator
from repro.runtime.heartbeat import HEARTBEAT_NBYTES, HeartbeatMonitor
from repro.runtime.messages import MsgKind, Transport
from repro.runtime.soa import TaskTable
from repro.util.rng import RngStream

pytestmark = pytest.mark.scale_smoke


class LegacyHeartbeatMonitor:
    """Replica of the per-object monitor the SoA sweeps replaced, over node
    ids: dict ``last_seen``, one ``send_small`` per live node per sweep (N
    posted delivery events), a full walk per check sweep, and one
    ``HEARTBEAT`` message per probe, taken by :meth:`on_heartbeat`."""

    def __init__(self, transport, node_ids, buddy_of, *, interval,
                 timeout_factor, on_death, incarnations):
        self.transport = transport
        self.node_ids = list(node_ids)
        self.buddy_of = dict(buddy_of)
        self.interval = interval
        self.timeout = timeout_factor * interval
        self.on_death = on_death
        #: Spare-node replacements by id (the dedup key's incarnation).
        self.incarnations = incarnations
        self.last_seen: dict[int, float] = {}
        self._reported: set[tuple[int, int]] = set()
        self._send_sweep_event: PeriodicHandle | None = None
        self._check_sweep_event: PeriodicHandle | None = None

    def start(self) -> None:
        sim = self.transport.sim
        self.last_seen = {nid: sim.now for nid in self.node_ids}
        self._send_sweep_event = sim.schedule_periodic(
            self.interval, self._send_sweep)
        self._check_sweep_event = sim.schedule_periodic(
            self.interval, self._check_sweep, first_delay=self.timeout)

    def stop(self) -> None:
        if self._send_sweep_event is not None:
            self._send_sweep_event.cancel()
            self._send_sweep_event = None
        if self._check_sweep_event is not None:
            self._check_sweep_event.cancel()
            self._check_sweep_event = None

    def _send_sweep(self) -> None:
        transport, buddy_of = self.transport, self.buddy_of
        for nid in self.node_ids:
            if transport.alive[nid]:
                transport.send_small(
                    MsgKind.HEARTBEAT, nid, buddy_of[nid],
                    nbytes=HEARTBEAT_NBYTES, tag="hb",
                )

    def _check_sweep(self) -> None:
        timeout = self.timeout
        last_seen = self.last_seen
        reported = self._reported
        alive = self.transport.alive
        for nid in self.node_ids:
            if not alive[nid]:
                continue
            buddy_id = self.buddy_of[nid]
            silent_for = self.transport.sim.now - last_seen[buddy_id]
            if silent_for >= timeout:
                key = (buddy_id, self.incarnations[buddy_id])
                if key not in reported:
                    reported.add(key)
                    self.on_death(nid, buddy_id)

    def on_heartbeat(self, msg) -> None:
        self.last_seen[msg.src] = self.transport.sim.now

    def notify_revived(self, node_id: int) -> None:
        now = self.transport.sim.now
        self.last_seen[node_id] = now
        self.last_seen[self.buddy_of[node_id]] = now


class LegacyReceiver:
    """The per-message route into a node, registered for every id of the
    legacy world: ``APP`` messages go to the task table's stamp entry,
    ``HEARTBEAT`` messages to the legacy monitor."""

    def __init__(self, table, monitor):
        self.table = table
        self.monitor = monitor

    def __call__(self, msg) -> None:
        if msg.kind is MsgKind.APP:
            self.table.on_stamp(msg.dst, *msg.payload)
        else:
            self.monitor.on_heartbeat(msg)


def _iteration_time(task_id: int, iteration: int) -> float:
    # Deterministic per-(task, iteration) jitter; any skew-producing function
    # works as long as both worlds share it.
    return 0.4 + 0.002 * ((task_id * 2654435761 + iteration * 97) % 89)


def _per_message_send_stamps(transport: Transport) -> Callable:
    """The fan-out loop :meth:`Transport.send_stamps` replaced, reproduced on
    top of the per-message fast path (delivery runs through
    :class:`LegacyReceiver` -> ``TaskTable.on_stamp`` ->
    ``Task.on_dep_message``, the pre-batching route)."""
    def send_stamps(src, targets, from_task, stamp, epoch, *, nbytes):
        for dst, to_task in targets:
            transport.send_small(MsgKind.APP, src, dst,
                                 (to_task, from_task, stamp, epoch),
                                 nbytes=nbytes)
    return send_stamps


def _fault_plan(n_per_replica: int, seed: int):
    """Seeded kills, post-detection revivals, and one re-kill (second
    incarnation) — identical action list for both worlds."""
    rng = RngStream(seed, "scale-equivalence/faults")
    n_total = 2 * n_per_replica
    victims = [int(v) for v in rng.choice(n_total, size=6, replace=False)]
    plan = []
    for i, nid in enumerate(victims):
        t_kill = float(rng.uniform(2.0, 6.0))
        plan.append((t_kill, "kill", nid))
        if i % 2 == 0:
            # Detection lands at most timeout + interval after the kill;
            # revive after it so the (id, incarnation) dedup is exercised.
            plan.append((t_kill + 6.0, "revive", nid))
    # One revived node dies again: its second incarnation must be re-detected.
    plan.append((14.5, "kill", victims[0]))
    plan.sort()
    return plan


def _run_world(n_per_replica: int, seed: int, *, legacy: bool):
    sim = Simulator()
    transport = Transport(sim)
    if legacy:
        transport.send_stamps = _per_message_send_stamps(transport)
    trace: list[tuple] = []

    # Node ids: replica r's rank k is r * n_per_replica + k.
    nodes = list(range(2 * n_per_replica))
    # One ring of tasks per replica (tasks_per_node=1, so row == node_id),
    # capped so the rings finish mid-run and go quiet like a real app phase.
    # Each task's iteration times are keyed by its node id.
    table = TaskTable(sim, transport, len(nodes), rings=2, iteration_time=[
        (lambda tid, it, base=r * n_per_replica:
         _iteration_time(base + tid, it)) for r in (0, 1)])
    table.set_cap(8)
    table.on_progress = (lambda nid: trace.append(
        ("prog", sim.now, nid, table.progress.item(nid))))

    buddy_of = {}
    for rank in range(n_per_replica):
        buddy_of[rank] = n_per_replica + rank
        buddy_of[n_per_replica + rank] = rank
    incarnations = [0] * len(nodes)
    options = dict(interval=1.0, timeout_factor=4.0,
                   on_death=lambda det, dead: trace.append(
                       ("detect", sim.now, det, dead)))
    if legacy:
        monitor = LegacyHeartbeatMonitor(transport, nodes, buddy_of,
                                         incarnations=incarnations, **options)
        receiver = LegacyReceiver(table, monitor)
        for nid in nodes:
            transport.register(nid, receiver)
    else:
        monitor = HeartbeatMonitor(transport, nodes, buddy_of, **options)
    monitor.start()
    for row in range(len(nodes)):
        table.start(row)

    def apply(action: str, nid: int) -> None:
        if action == "kill":
            trace.append(("kill", sim.now, nid))
            table.kill(nid)
        else:
            trace.append(("revive", sim.now, nid))
            incarnations[nid] += 1
            transport.set_alive(nid, True)
            monitor.notify_revived(nid)

    for t, action, nid in _fault_plan(n_per_replica, seed):
        sim.schedule_at(t, apply, action, nid)

    sim.run(until=20.0)
    monitor.stop()
    last_seen = {nid: float(monitor.last_seen[nid]) for nid in nodes}
    return {
        "trace": trace,
        "last_seen": last_seen,
        "sent": transport.messages_sent,
        "delivered": transport.messages_delivered,
        "dropped": transport.messages_dropped,
        "sent_by_kind": dict(transport.sent_by_kind),
        "bytes_by_kind": dict(transport.bytes_by_kind),
        "batched_messages": transport.batched_messages,
        "events": sim.events_processed,
        "final_progress": table.progress.tolist(),
    }


class TestLargeNObservableEquivalence:
    def test_vectorized_runtime_matches_per_object_replica(self):
        n_per_replica = 2048  # 4096 nodes / 4096 tasks across both replicas
        new = _run_world(n_per_replica, seed=11, legacy=False)
        old = _run_world(n_per_replica, seed=11, legacy=True)

        assert new["trace"] == old["trace"]
        assert new["last_seen"] == old["last_seen"]
        assert new["final_progress"] == old["final_progress"]
        for key in ("sent", "delivered", "dropped",
                    "sent_by_kind", "bytes_by_kind"):
            assert new[key] == old[key], key

        # The scenario actually exercised what it claims to: kills, revivals,
        # a re-detection of a second incarnation, and real app traffic.
        kinds = [entry[0] for entry in new["trace"]]
        assert kinds.count("kill") == 7
        assert kinds.count("revive") == 3
        assert kinds.count("detect") >= 7
        assert kinds.count("prog") > 4 * n_per_replica
        detected = [entry[3] for entry in new["trace"] if entry[0] == "detect"]
        assert len(detected) == len(set(
            (nid, detected[:i].count(nid)) for i, nid in enumerate(detected)))

        # Batching is the *only* divergence: strictly fewer heap events for
        # the same observable execution, every coalesced message accounted.
        assert new["batched_messages"] > 0
        assert old["batched_messages"] == 0
        assert new["events"] < old["events"]

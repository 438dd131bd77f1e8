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
from repro.runtime.node import Node
from repro.runtime.soa import TaskTable
from repro.util.rng import RngStream

pytestmark = pytest.mark.scale_smoke


class LegacyHeartbeatMonitor:
    """Verbatim replica of the per-object monitor the SoA sweeps replaced:
    dict ``last_seen``, one ``send_small`` per live node per sweep (N posted
    delivery events), and a full attribute-chasing walk per check sweep."""

    def __init__(self, nodes, buddy_of, *, interval, timeout_factor, on_death):
        self.nodes = {n.node_id: n for n in nodes}
        self.buddy_of = dict(buddy_of)
        self.interval = interval
        self.timeout = timeout_factor * interval
        self.on_death = on_death
        self.last_seen: dict[int, float] = {}
        self._reported: set[tuple[int, int]] = set()
        self._send_sweep_event: PeriodicHandle | None = None
        self._check_sweep_event: PeriodicHandle | None = None

    def start(self) -> None:
        first = next(iter(self.nodes.values()))
        sim = first.sim
        for node in self.nodes.values():
            node.heartbeat_handler = self._on_heartbeat
        self.last_seen = {nid: sim.now for nid in self.nodes}
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
        buddy_of = self.buddy_of
        for node in self.nodes.values():
            if node.alive:
                node.transport.send_small(
                    MsgKind.HEARTBEAT, node.node_id, buddy_of[node.node_id],
                    nbytes=HEARTBEAT_NBYTES, tag="hb",
                )

    def _check_sweep(self) -> None:
        timeout = self.timeout
        last_seen = self.last_seen
        reported = self._reported
        for node in self.nodes.values():
            if not node.alive:
                continue
            buddy_id = self.buddy_of[node.node_id]
            silent_for = node.sim.now - last_seen[buddy_id]
            if silent_for >= timeout:
                buddy = self.nodes[buddy_id]
                key = (buddy_id, buddy.failures_survived)
                if key not in reported:
                    reported.add(key)
                    self.on_death(node, buddy)

    def _on_heartbeat(self, msg) -> None:
        self.last_seen[msg.src] = self.nodes[msg.src].sim.now

    def notify_revived(self, node_id: int) -> None:
        now = self.nodes[node_id].sim.now
        self.last_seen[node_id] = now
        self.last_seen[self.buddy_of[node_id]] = now


def _iteration_time(task_id: int, iteration: int) -> float:
    # Deterministic per-(task, iteration) jitter; any skew-producing function
    # works as long as both worlds share it.
    return 0.4 + 0.002 * ((task_id * 2654435761 + iteration * 97) % 89)


def _per_message_send_stamps(transport: Transport) -> Callable:
    """The fan-out loop :meth:`Transport.send_stamps` replaced, reproduced on
    top of the per-message fast path (delivery runs through
    ``Node.__call__`` -> ``Task.on_dep_message``, the pre-batching route)."""
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

    nodes: list[Node] = []
    for replica in (0, 1):
        for rank in range(n_per_replica):
            nodes.append(Node(replica * n_per_replica + rank, replica, rank,
                              sim, transport))
    # One ring of tasks per replica (tasks_per_node=1, so row == node_id),
    # capped so the rings finish mid-run and go quiet like a real app phase.
    # Each task's iteration times are keyed by its node id.
    table = TaskTable(nodes, rings=2, iteration_time=[
        (lambda tid, it, base=r * n_per_replica:
         _iteration_time(base + tid, it)) for r in (0, 1)])
    table.set_cap(8)
    for node in nodes:
        node.on_progress = (lambda nd: trace.append(
            ("prog", sim.now, nd.node_id, table.progress.item(nd.first))))

    buddy_of = {}
    for rank in range(n_per_replica):
        buddy_of[rank] = n_per_replica + rank
        buddy_of[n_per_replica + rank] = rank
    monitor_cls = LegacyHeartbeatMonitor if legacy else HeartbeatMonitor
    monitor = monitor_cls(
        nodes, buddy_of, interval=1.0, timeout_factor=4.0,
        on_death=lambda det, dead: trace.append(
            ("detect", sim.now, det.node_id, dead.node_id)))
    monitor.start()
    for node in nodes:
        node.start_tasks()

    node_by_id = {n.node_id: n for n in nodes}

    def apply(action: str, nid: int) -> None:
        node = node_by_id[nid]
        if action == "kill":
            trace.append(("kill", sim.now, nid))
            node.die()
        else:
            trace.append(("revive", sim.now, nid))
            node.revive()
            monitor.notify_revived(nid)

    for t, action, nid in _fault_plan(n_per_replica, seed):
        sim.schedule_at(t, apply, action, nid)

    sim.run(until=20.0)
    monitor.stop()
    last_seen = {nid: float(monitor.last_seen[nid]) for nid in monitor.nodes}
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

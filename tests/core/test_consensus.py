"""Checkpoint-consensus protocol tests (§2.2, Fig. 3).

The safety property: when a round completes, every task in scope is paused at
exactly the decided iteration — no task ran past it, no in-flight iteration is
lost — even though tasks progress at different rates with no global barrier.
"""

import numpy as np
import pytest

from repro.core.consensus import ConsensusController, RoundEngine
from repro.runtime.des import Simulator
from repro.runtime.messages import Message, MsgKind, Transport
from repro.runtime.ring import RingFastForward
from repro.runtime.soa import TaskTable
from repro.runtime.task import TaskState
from repro.util.errors import SimulationError


def build(n_nodes=4, tasks_per_node=2, skew=0.3):
    """One ring over ``n_nodes`` nodes; ``nodes`` is their ids."""
    sim = Simulator()
    transport = Transport(sim)

    def iteration_time(task_id, it):
        return 0.1 * (1.0 + skew * ((task_id * 13 + it * 7) % 10) / 10)

    table = TaskTable(sim, transport, n_nodes, tasks_per_node=tasks_per_node,
                      iteration_time=iteration_time)
    controller = ConsensusController(table)
    return sim, list(range(n_nodes)), table.tasks(0), controller


def start(controller):
    """Start every task in the event engine."""
    table = controller.table
    for row in table.ring_rows(0):
        table.start(row)


class TestSafety:
    def test_all_tasks_pause_at_decided_iteration(self):
        sim, nodes, tasks, controller = build()
        start(controller)
        sim.run(until=2.05)
        done = []
        controller.start_round(nodes,
                               lambda rid, it: done.append(it))
        sim.run(until=10.0)
        assert len(done) == 1
        decided = done[0]
        assert all(t.progress == decided for t in tasks)
        assert all(t.state is TaskState.PAUSED for t in tasks)

    def test_decided_iteration_at_least_max_progress_at_request(self):
        sim, nodes, tasks, controller = build()
        start(controller)
        sim.run(until=3.05)
        max_before = max(t.progress for t in tasks)
        done = []
        controller.start_round(nodes,
                               lambda rid, it: done.append(it))
        sim.run(until=10.0)
        assert done[0] >= max_before

    def test_mid_iteration_tasks_not_truncated(self):
        # A task computing iteration k+1 when the request lands must be
        # allowed to finish it; the decision accounts for in-flight work.
        sim, nodes, tasks, controller = build(skew=0.0)
        start(controller)
        sim.run(until=0.45)  # everyone mid-iteration 5
        done = []
        controller.start_round(nodes,
                               lambda rid, it: done.append(it))
        sim.run(until=5.0)
        assert done[0] == 5
        assert all(t.progress == 5 for t in tasks)

    def test_subset_scope_leaves_other_nodes_running(self):
        sim, nodes, tasks, controller = build(n_nodes=4, tasks_per_node=1)
        start(controller)
        sim.run(until=1.05)
        # Only nodes 0 and 1 participate (e.g. medium-recovery consensus on
        # the healthy replica); 2 and 3 keep running... until the ring
        # dependencies on the paused tasks stall them, which is fine.
        done = []
        controller.start_round([0, 1], lambda rid, it: done.append(it))
        sim.run(until=3.0)
        assert len(done) == 1
        assert tasks[0].state is TaskState.PAUSED
        assert tasks[1].state is TaskState.PAUSED


class TestLiveness:
    def test_completes_from_fresh_start(self):
        sim, nodes, tasks, controller = build()
        start(controller)
        done = []
        controller.start_round(nodes,
                               lambda rid, it: done.append(it))
        sim.run(until=5.0)
        assert done  # decides even at iteration ~0

    def test_sequential_rounds(self):
        sim, nodes, tasks, controller = build()
        start(controller)
        decisions = []

        def after_first(rid, it):
            decisions.append(it)
            for t in tasks:
                t.resume()

        controller.start_round(nodes, after_first)
        sim.run(until=3.0)
        controller.start_round(nodes,
                               lambda rid, it: decisions.append(it))
        sim.run(until=8.0)
        assert len(decisions) == 2
        assert decisions[1] > decisions[0]

    def test_concurrent_round_rejected(self):
        sim, nodes, tasks, controller = build()
        controller.start_round(nodes, lambda *a: None)
        with pytest.raises(SimulationError):
            controller.start_round(nodes, lambda *a: None)

    def test_abort_releases_paused_tasks(self):
        sim, nodes, tasks, controller = build()
        start(controller)
        sim.run(until=1.05)
        controller.start_round(nodes, lambda *a: None)
        sim.run(until=1.10)  # mid-protocol: paused tasks still draining
        assert controller.active
        controller.abort_round()
        progress_at_abort = max(t.progress for t in tasks)
        sim.run(until=3.0)
        assert max(t.progress for t in tasks) > progress_at_abort
        assert controller.rounds_aborted == 1

    def test_stale_messages_after_abort_ignored(self):
        sim, nodes, tasks, controller = build()
        start(controller)
        done = []
        controller.start_round(nodes,
                               lambda rid, it: done.append((rid, it)))
        sim.run(until=0.01)   # request in flight
        controller.abort_round()
        sim.run(until=2.0)    # stale messages drain harmlessly
        assert done == []
        # A fresh round still works afterwards.
        controller.start_round(nodes,
                               lambda rid, it: done.append((rid, it)))
        sim.run(until=6.0)
        assert len(done) == 1

    def test_empty_scope_rejected(self):
        _, _, _, controller = build()
        with pytest.raises(SimulationError):
            controller.start_round([], lambda *a: None)

    def test_empty_node_map_rejected(self):
        # A controller runs over a task table, and a table has nodes.
        sim = Simulator()
        with pytest.raises(ValueError):
            TaskTable(sim, Transport(sim), 0, iteration_time=lambda *_: 1.0)

    def test_round_counters(self):
        sim, nodes, tasks, controller = build()
        start(controller)
        controller.start_round(nodes, lambda *a: None)
        sim.run(until=5.0)
        assert controller.rounds_started == 1
        assert controller.rounds_completed == 1


class EnvelopeReceiver:
    """A node's transport receiver under :class:`EnvelopeController`: every
    :class:`Message` goes to the controller, dependency stamps to the task
    table."""

    def __init__(self, controller):
        self._controller = controller
        self.on_stamp = controller.table.on_stamp

    def __call__(self, msg):
        self._controller._on_message(msg)


class EnvelopeController(ConsensusController):
    """The consensus plumbing before ``Transport.send_control``: every
    protocol message is a :class:`Message` routed through ``Transport.send``
    to a transport receiver that hands control traffic to this controller
    and everything else to the node."""

    def __init__(self, table):
        super().__init__(table)
        receiver = EnvelopeReceiver(self)
        for nid in range(len(table.state) // table.tasks_per_node):
            self.transport.register(nid, receiver)

    def _send(self, src, dst, handler, payload):
        self.transport.send(Message(
            MsgKind.CONTROL, src=src, dst=dst, payload=payload, nbytes=64,
            tag=handler.__name__))

    def _on_message(self, msg):
        if msg.kind is not MsgKind.CONTROL:
            self.table(msg)
        elif self.transport.alive[msg.dst]:
            getattr(self, msg.tag)(msg.src, msg.dst, msg.payload)


def ring_over(sim, tasks, skew=0.3):
    """The fast-forward engine over ``build``'s tasks (one ring)."""
    ids = np.arange(len(tasks))

    def row_times(first, count):
        its = np.arange(first, first + count)[:, None]
        return 0.1 * (1.0 + skew * ((ids * 13 + its * 7) % 10) / 10)

    ring = RingFastForward(tasks[0].table, 0, sim=sim,
                           transport=tasks[0].table.transport,
                           row_times=row_times)
    sim.return_hooks.append(ring.refresh)
    return ring


def _sixteen_node_round(sim, nodes, controller, timeline):
    sim.run(until=2.05)
    controller.start_round(
        nodes,
        lambda rid, it: timeline.append((sim.now, "done", rid, it)))
    sim.run(until=6.0)


class TestEnvelopeFreeMessages:
    """``send_control`` rounds are event-for-event the ``Message`` rounds.

    Both sides run on the message path (the round engine patched off): the
    comparison includes the simulator's own event and sequence counts.
    """

    N = 16

    def _observe(self, controller_cls, script):
        sim, nodes, tasks, _ = build(n_nodes=self.N)
        controller = controller_cls(tasks[0].table)
        table = controller.table
        timeline = []
        table.on_progress = lambda node: timeline.append(
            (sim.now, "progress", node,
             max(table.task(r).progress for r in table.rows(node))))
        start(controller)
        transport = controller.transport
        script(sim, nodes, controller, timeline)
        return (timeline,
                [(t.progress, t.state) for t in tasks],
                (transport.messages_sent, transport.messages_delivered,
                 transport.messages_dropped, dict(transport.sent_by_kind),
                 dict(transport.bytes_by_kind)),
                (sim.events_processed, next(sim._seq)))

    def _both(self, script, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(RoundEngine, "eligible", lambda self, scope: False)
            old = self._observe(EnvelopeController, script)
            new = self._observe(ConsensusController, script)
        assert new == old
        return new

    def test_sixteen_node_round_matches_message_path(self, monkeypatch):
        timeline, states, counters, _ = self._both(_sixteen_node_round,
                                                   monkeypatch)
        (done,) = [e for e in timeline if e[1] == "done"]
        decided = done[3]
        assert all(s == (decided, TaskState.PAUSED) for s in states)
        sent, delivered, dropped, kinds, _ = counters
        assert dropped == 0 and kinds["control"] == 4 * (self.N - 1) + 2

    def test_kill_mid_round_drops_at_dead_sender_and_receiver(
            self, monkeypatch):
        drops = {}

        def script(sim, nodes, controller, timeline):
            transport = controller.transport
            scope = nodes
            sim.run(until=2.05)
            controller.start_round(scope, lambda *a: timeline.append("done"))
            # The start flood reaches node 5 (depth 2) three hops after the
            # round starts; it dies with that message on the wire, so the
            # message is dropped at the dead receiver and the max reduction
            # can never reach the root.
            sim.run(until=sim.now + 1.2e-5)
            controller.table.kill(5)
            base = transport.messages_dropped
            sim.run(until=2.5)
            drops["receiver"] = transport.messages_dropped - base
            drops["decided"] = controller.decided_iteration
            controller.abort_round()
            # A round rooted at the dead node: its kick-off message is
            # dropped at the dead sender.
            base = transport.messages_dropped
            controller.start_round([5] + scope[:5] + scope[6:],
                                   lambda *a: timeline.append("done"))
            drops["sender"] = transport.messages_dropped - base
            sim.run(until=3.0)
            controller.abort_round()

        timeline, states, counters, _ = self._both(script, monkeypatch)
        assert drops == {"receiver": drops["receiver"], "decided": None,
                         "sender": 1}
        assert drops["receiver"] > 0
        assert "done" not in timeline
        assert counters[3]["control"] > 0

    def test_engine_round_matches_message_round(self, monkeypatch):
        """On a fast-forwarded ring the round engine runs the same round:
        everything but the simulator's counters is equal."""

        def observe(engine):
            sim, nodes, tasks, controller = build(n_nodes=self.N)
            ring = ring_over(sim, tasks)
            assert ring.open_start()
            timeline = []
            _sixteen_node_round(sim, nodes, controller, timeline)
            assert controller.engine.rounds == (1 if engine else 0)
            transport = controller.transport
            return (timeline,
                    [(t.progress, t.state, t.pause_at, t.busy_until,
                      t.iterations_executed, dict(t.dep_stamps))
                     for t in tasks],
                    (transport.messages_sent, transport.messages_delivered,
                     transport.messages_dropped, dict(transport.sent_by_kind),
                     dict(transport.bytes_by_kind)))

        with monkeypatch.context() as m:
            m.setattr(RoundEngine, "eligible", lambda self, scope: False)
            old = observe(engine=False)
        new = observe(engine=True)
        assert new == old
        (done,) = new[0]
        assert all(state[:2] == (done[3], TaskState.PAUSED)
                   for state in new[1])

"""Node dispatch and bookkeeping tests."""

import pytest

from repro.runtime.des import Simulator
from repro.runtime.messages import Message, MsgKind, Transport
from repro.runtime.node import Node
from repro.runtime.soa import TaskTable
from repro.util.errors import SimulationError


def build():
    sim = Simulator()
    transport = Transport(sim)
    node = Node(0, 0, 0, sim, transport)
    peer = Node(1, 0, 1, sim, transport)
    return sim, transport, node, peer


class TestDispatch:
    def test_heartbeat_routed_to_handler(self):
        sim, transport, node, peer = build()
        seen = []
        node.heartbeat_handler = seen.append
        transport.send(Message(MsgKind.HEARTBEAT, src=1, dst=0))
        sim.run()
        assert len(seen) == 1

    def test_control_without_handler_raises(self):
        sim, transport, node, peer = build()
        transport.send(Message(MsgKind.CONTROL, src=1, dst=0, tag="x"))
        with pytest.raises(SimulationError):
            sim.run()

    def test_app_message_to_unknown_task_ignored(self):
        sim, transport, node, peer = build()
        transport.send(Message(MsgKind.APP, src=1, dst=0,
                               payload=(99, 0, 1, 0)))
        sim.run()  # no task 99 hosted: silently dropped

    def test_dead_node_ignores_everything(self):
        sim, transport, node, peer = build()
        seen = []
        node.heartbeat_handler = seen.append
        node.die()
        transport.send(Message(MsgKind.HEARTBEAT, src=1, dst=0))
        sim.run()
        assert seen == []


class TestBookkeeping:
    def _task(self, node):
        """A ring of one task on ``node``: its only neighbour is itself."""
        return TaskTable([node], iteration_time=lambda *_: 0.1).task(0)

    def test_revive_counts_incarnations(self):
        sim, transport, node, peer = build()
        assert node.failures_survived == 0
        node.die()
        node.revive()
        node.die()
        node.revive()
        assert node.failures_survived == 2
        assert node.alive

    def test_double_die_is_idempotent(self):
        sim, transport, node, peer = build()
        t = self._task(node)
        node.start_tasks()
        node.die()
        node.die()
        assert not node.alive
        assert node.failures_survived == 0

    def test_progress_callback_invoked(self):
        sim, transport, node, peer = build()
        self._task(node)
        calls = []
        node.on_progress = calls.append
        node.start_tasks()
        sim.run(until=0.35)
        assert len(calls) == 3

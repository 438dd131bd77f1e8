"""A node is an id: what hosting, liveness and incarnations do by node id.

The task table hosts the tasks of nodes ``0 .. n-1`` and is the transport
receiver of each; the transport's ``alive`` record is the one liveness
record; ``ACR.failures_survived`` counts each id's spare-node replacements.
"""

import pytest

from repro.core.config import ACRConfig
from repro.core.framework import ACR
from repro.runtime.des import Simulator
from repro.runtime.messages import Message, MsgKind, Transport
from repro.runtime.soa import TaskTable
from repro.runtime.task import TaskState
from repro.util.errors import SimulationError


def build(tasks_per_node=1):
    """Two nodes, one ring of their tasks (0.1 s per iteration)."""
    sim = Simulator()
    transport = Transport(sim)
    table = TaskTable(sim, transport, 2, tasks_per_node=tasks_per_node,
                      iteration_time=lambda *_: 0.1)
    return sim, transport, table


def start(table):
    for row in table.ring_rows(0):
        table.start(row)


class TestDispatch:
    def test_registers_every_node_with_the_transport(self):
        sim, transport, table = build(tasks_per_node=2)
        assert transport.liveness().tolist() == [True, True]
        assert [list(table.rows(k)) for k in (0, 1)] == [[0, 1], [2, 3]]
        assert [table.node_of(row) for row in range(4)] == [0, 0, 1, 1]

    def test_heartbeat_message_to_task_host_raises(self):
        # Heartbeats ride the monitor's sweeps and stamps ride on_stamp: a
        # Message addressed to a task host is a bug, not traffic to drop.
        sim, transport, table = build()
        transport.send(Message(MsgKind.HEARTBEAT, src=1, dst=0))
        with pytest.raises(SimulationError, match="task host"):
            sim.run()

    def test_control_without_handler_raises(self):
        sim, transport, table = build()
        transport.send(Message(MsgKind.CONTROL, src=1, dst=0, tag="x"))
        with pytest.raises(SimulationError):
            sim.run()

    def test_app_message_to_unknown_task_ignored(self):
        sim, transport, table = build(tasks_per_node=2)
        # Node 1 hosts tasks 2 and 3: stamps for task 0 (on node 0) and
        # for task 99 (nowhere) are dropped there.
        table.on_stamp(1, 0, 1, 7, 0)
        table.on_stamp(1, 99, 1, 7, 0)
        assert table.left_stamp == table.right_stamp == [-1] * 4
        table.on_stamp(1, 2, 1, 7, 0)
        assert table.left_stamp == [-1, -1, 7, -1]

    def test_dead_node_ignores_everything(self):
        sim, transport, table = build()
        table.kill(0)
        transport.send_stamps(1, table.targets(1), 1, 5, 0, nbytes=8)
        transport.send(Message(MsgKind.HEARTBEAT, src=1, dst=0))
        sim.run()  # nothing reaches node 0, so nothing raises
        assert transport.messages_dropped == 3
        assert table.left_stamp[0] == table.right_stamp[0] == -1


class TestBookkeeping:
    def test_revive_counts_incarnations(self):
        acr = ACR("synthetic", nodes_per_replica=2,
                  config=ACRConfig(total_iterations=4, app_scale=1e-4,
                                   seed=1))
        acr.start()
        assert acr.failures_survived == [0, 0, 0, 0]
        for _ in range(2):
            acr.task_table.kill(3)
            assert not acr.transport.alive[3]
            acr._revive(3)
        assert acr.failures_survived == [0, 0, 0, 2]
        assert acr.transport.alive[3]

    def test_double_die_is_idempotent(self):
        sim, transport, table = build(tasks_per_node=2)
        start(table)
        table.kill(1)
        table.kill(1)
        assert not transport.alive[1]
        assert table.state[2:] == [TaskState.DEAD] * 2
        assert TaskState.DEAD not in table.state[:2]

    def test_progress_callback_invoked(self):
        sim, transport, table = build()
        calls = []
        table.on_progress = calls.append
        start(table)
        sim.run(until=0.35)
        assert sorted(calls) == [0, 0, 0, 1, 1, 1]

    def test_all_ready_once_every_task_of_the_node_pauses(self):
        sim, transport, table = build(tasks_per_node=2)
        ready = []
        table.on_all_tasks_ready = ready.append
        start(table)
        assert not table.all_ready(0)
        table.request_pause_at(0, None)
        assert not table.all_ready(0) and ready == []
        table.request_pause_at(1, None)
        assert table.all_ready(0) and ready == [0]
        table.kill(1)  # dead tasks count as ready
        assert table.all_ready(1)

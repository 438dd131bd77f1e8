"""Simulated compute nodes hosting tasks.

A node is the failure unit (fail-stop kills the whole node), the checkpoint
unit (one local checkpoint per node, §2.1), and the progress-aggregation unit
of the consensus protocol's Phase 1 ("ACR records the maximum progress among
all the tasks residing on the same node").  Its tasks are the rows
``[first, first + tasks_per_node)`` of one
:class:`~repro.runtime.soa.TaskTable`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.runtime.des import Simulator
from repro.runtime.messages import Message, MsgKind, Transport
from repro.runtime.task import _DEAD, _PAUSED
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.ring import RingFastForward
    from repro.runtime.soa import TaskTable


class Node:
    """One simulated node: task rows, liveness, and ACR-agent bookkeeping.

    A paper-scale run holds a quarter of a million of these, so a node owns
    no per-node callable: it is its own transport receiver (see
    :meth:`__call__` and :meth:`on_stamp`), and each hook below holds one
    callable that the installer shares across every node.
    """

    __slots__ = ("node_id", "replica", "rank", "sim", "transport", "table",
                 "first", "failures_survived", "ring", "on_progress",
                 "on_all_tasks_ready", "heartbeat_handler")

    def __init__(
        self,
        node_id: int,
        replica: int,
        rank: int,
        sim: Simulator,
        transport: Transport,
    ):
        self.node_id = node_id      # globally unique
        self.replica = replica      # 0 or 1
        self.rank = rank            # index within the replica (buddy-aligned)
        self.sim = sim
        self.transport = transport
        #: The table whose rows ``[first, first + tpn)`` this node hosts;
        #: set by the table (None: the node hosts no task).
        self.table: "TaskTable | None" = None
        self.first = 0
        self.failures_survived = 0
        #: The fast-forward engine that owns this node's tasks while their
        #: ring is free-running (see ring.py); None in event mode.
        self.ring: "RingFastForward | None" = None
        #: Hooks installed by the ACR framework.
        self.on_progress: Callable[["Node"], None] | None = None
        self.on_all_tasks_ready: Callable[["Node"], None] | None = None
        self.heartbeat_handler: Callable[[Message], None] | None = None
        transport.register(node_id, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.node_id}, replica={self.replica}, rank={self.rank})"

    @property
    def alive(self) -> bool:
        """The transport's liveness record for this node."""
        return self.transport.alive[self.node_id] == 1

    # -- task hosting -------------------------------------------------------------
    def rows(self) -> range:
        """The table rows of the hosted tasks (empty without a table)."""
        table = self.table
        if table is None:
            return range(0)
        return range(self.first, self.first + table.tasks_per_node)

    def start_tasks(self) -> None:
        table = self.table
        if table is not None:
            for row in self.rows():
                table.start(row)

    # -- message dispatch ---------------------------------------------------------
    # The transport calls the node itself with each Message and its on_stamp
    # with each dependency stamp, and delivers only to live nodes, so neither
    # path re-checks.
    def __call__(self, msg: Message) -> None:
        if msg.kind is MsgKind.APP:
            self.on_stamp(*msg.payload)
        elif msg.kind is MsgKind.HEARTBEAT:
            if self.heartbeat_handler is not None:
                self.heartbeat_handler(msg)
        else:
            # Protocol traffic rides Transport.send_control, never a Message.
            raise SimulationError(
                f"node {self.node_id}: no handler for {msg.kind.value} "
                f"messages")

    def on_stamp(self, to_task: int, from_task: int, stamp: int,
                 epoch: int) -> None:
        """Deliver a dependency stamp to the hosted task ``to_task`` (an
        ``APP`` message's payload; Transport.send_stamps calls this
        directly).  A stamp for a task not hosted here is dropped."""
        table = self.table
        if table is not None:
            first = self.first
            i = to_task - first % table.size
            if 0 <= i < table.tasks_per_node:
                table.task(first + i).on_dep_message(from_task, stamp, epoch)

    # -- ACR agent callbacks (installed by the framework) ---------------------------
    def on_task_progress(self, row: int) -> None:
        """The local task at table row ``row`` finished an iteration."""
        if self.on_progress is not None:
            self.on_progress(self)

    def on_task_ready_for_checkpoint(self, row: int) -> None:
        """The task at table row ``row`` paused at the decided iteration;
        fire when all local tasks are."""
        if self.all_tasks_ready():
            if self.on_all_tasks_ready is not None:
                self.on_all_tasks_ready(self)

    def all_tasks_ready(self) -> bool:
        table = self.table
        if table is None:
            return True
        first = self.first
        return all(s is _PAUSED or s is _DEAD for s in
                   table.state[first:first + table.tasks_per_node])

    # -- liveness --------------------------------------------------------------------
    def die(self) -> None:
        """Fail-stop: stop responding to any communication (§6.1)."""
        if not self.alive:
            return
        if self.ring is not None:
            self.ring.close()
        self.transport.set_alive(self.node_id, False)
        table = self.table
        if table is not None:
            table.kill(self.first, self.first + table.tasks_per_node)

    def revive(self) -> None:
        """A spare node takes over this node's identity after recovery."""
        self.failures_survived += 1
        self.transport.set_alive(self.node_id, True)

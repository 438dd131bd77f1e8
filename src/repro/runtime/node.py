"""Simulated compute nodes hosting tasks.

A node is the failure unit (fail-stop kills the whole node), the checkpoint
unit (one local checkpoint per node, §2.1), and the progress-aggregation unit
of the consensus protocol's Phase 1 ("ACR records the maximum progress among
all the tasks residing on the same node").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.runtime.des import Simulator
from repro.runtime.messages import Message, MsgKind, Transport
from repro.runtime.task import Task, TaskState
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.ring import RingFastForward
    from repro.runtime.soa import NodeStateArrays


class Node:
    """One simulated node: tasks, liveness, and ACR-agent bookkeeping."""

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
        self.tasks: list[Task] = []
        self._task_by_id: dict[int, Task] = {}
        self.alive = True
        self.failures_survived = 0
        #: Optional struct-of-arrays mirror of (alive, failures_survived);
        #: bound by the heartbeat monitor so its sweeps read liveness
        #: vectorized.  die()/revive() are the only writers (see soa.py).
        self._soa: "NodeStateArrays | None" = None
        self._soa_slot = -1
        #: The fast-forward engine that owns this node's tasks while their
        #: ring is free-running (see ring.py); None in event mode.
        self.ring: "RingFastForward | None" = None
        #: Maximum progress reported by any local task (consensus Phase 1).
        self.local_max_progress = 0
        #: Hooks installed by the ACR framework.
        self.on_progress: Callable[["Node"], None] | None = None
        self.on_all_tasks_ready: Callable[["Node"], None] | None = None
        self.heartbeat_handler: Callable[[Message], None] | None = None
        transport.register(node_id, self._on_message)
        transport.register_stamps(node_id, self._on_stamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.node_id}, replica={self.replica}, rank={self.rank})"

    # -- struct-of-arrays binding -------------------------------------------------
    def bind_state_arrays(self, soa: "NodeStateArrays", slot: int) -> None:
        """Mirror this node's liveness into a :class:`NodeStateArrays` slot."""
        self._soa = soa
        self._soa_slot = slot
        soa.alive[slot] = self.alive
        soa.failures_survived[slot] = self.failures_survived

    # -- task hosting -------------------------------------------------------------
    def add_task(self, task: Task) -> None:
        self.tasks.append(task)
        self._task_by_id[task.task_id] = task

    def start_tasks(self) -> None:
        for t in self.tasks:
            t.start()

    # -- message dispatch ---------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        if not self.alive:
            return
        if msg.kind is MsgKind.APP:
            to_task, from_task, stamp, epoch = msg.payload
            task = self._find_task(to_task)
            if task is not None:
                task.on_dep_message(from_task, stamp, epoch)
        elif msg.kind is MsgKind.HEARTBEAT:
            if self.heartbeat_handler is not None:
                self.heartbeat_handler(msg)
        else:
            # Protocol traffic rides Transport.send_control, never a Message.
            raise SimulationError(
                f"node {self.node_id}: no handler for {msg.kind.value} "
                f"messages")

    def _find_task(self, task_id: int) -> Task | None:
        return self._task_by_id.get(task_id)

    def _on_stamp(self, to_task: int, from_task: int, stamp: int,
                  epoch: int) -> None:
        """Flat dependency-stamp delivery (Transport.send_stamps fast path)."""
        if not self.alive:
            return
        task = self._task_by_id.get(to_task)
        if task is not None:
            task.on_dep_message(from_task, stamp, epoch)

    # -- ACR agent callbacks (installed by the framework) ---------------------------
    def on_task_progress(self, task: Task) -> None:
        """Phase 1: a local task finished an iteration; track the node max."""
        if task.progress > self.local_max_progress:
            self.local_max_progress = task.progress
        if self.on_progress is not None:
            self.on_progress(self)

    def on_task_ready_for_checkpoint(self, task: Task) -> None:
        """A task paused at the decided iteration; fire when all local tasks are."""
        if self.all_tasks_ready():
            if self.on_all_tasks_ready is not None:
                self.on_all_tasks_ready(self)

    def all_tasks_ready(self) -> bool:
        return all(t.state in (TaskState.PAUSED, TaskState.DEAD) for t in self.tasks)

    def min_task_progress(self) -> int:
        live = [t.progress for t in self.tasks if t.state is not TaskState.DEAD]
        return min(live) if live else 0

    # -- liveness --------------------------------------------------------------------
    def die(self) -> None:
        """Fail-stop: stop responding to any communication (§6.1)."""
        if not self.alive:
            return
        if self.ring is not None:
            self.ring.close()
        self.alive = False
        if self._soa is not None:
            self._soa.set_dead(self._soa_slot)
        self.transport.set_alive(self.node_id, False)
        for t in self.tasks:
            t.kill()

    def revive(self) -> None:
        """A spare node takes over this node's identity after recovery."""
        self.alive = True
        self.failures_survived += 1
        if self._soa is not None:
            self._soa.set_alive(self._soa_slot, self.failures_survived)
        self.transport.set_alive(self.node_id, True)

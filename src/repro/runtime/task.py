"""Iterative application tasks with message-driven progress.

Tasks are the unit the checkpoint-consensus protocol reasons about (paper
§2.2): they progress through iterations at different rates, gated by
dependency messages from neighbor tasks (no global synchronization), report
progress to the runtime "through a function call ... at the end of each
iteration", and can be paused and resumed by the consensus machinery.

Rollback safety uses an *epoch* counter: every dependency message carries the
sender's epoch, and a restart bumps the epoch, so messages in flight across a
rollback are discarded — modelling the flush of stale traffic that a real
coordinated-checkpoint recovery performs.  Iteration completions carry the
epoch too, so they are fire-and-forget posts that nothing ever cancels: a
completion that outlives a kill or a restore finds the task DEAD or in a newer
epoch and drops itself.  The one other fate of a posted completion or stamp is
to be withdrawn unfired by the ring engine when it adopts the ring
(:meth:`repro.runtime.ring.RingFastForward.adopt`), which then delivers its
effect at the same instant.

Every task's fields live in one :class:`~repro.runtime.soa.TaskTable`, which
also runs the event-mode step row by row.  A :class:`Task` is a view of one
row: stamp delivery (:meth:`Task.on_dep_message`) and resume
(:meth:`Task.resume`) enter through it, and tests and tools read a task's
fields through it.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

#: Dependency-stamp message size (paper §2.2 neighbor messages).
DEP_STAMP_NBYTES = 1024

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.soa import TaskTable


class TaskState(str, Enum):
    IDLE = "idle"          # waiting for dependencies
    COMPUTING = "computing"
    PAUSED = "paused"      # held by the consensus protocol
    DEAD = "dead"          # hosting node failed


# Module-level aliases: the task step tests state identity several times per
# iteration, and a global read is cheaper than an enum class attribute.
_IDLE = TaskState.IDLE
_COMPUTING = TaskState.COMPUTING
_PAUSED = TaskState.PAUSED
_DEAD = TaskState.DEAD


class Task:
    """One migratable application task (a chare, in Charm++ terms): row
    ``row`` of ``table``.  Build it with :meth:`TaskTable.task`."""

    __slots__ = ("table", "row")

    def __init__(self, table: "TaskTable", row: int):
        self.table = table
        self.row = row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(id={self.task_id}, row={self.row})"

    # -- fields (read-only: the table is their single writer) ------------------------
    @property
    def task_id(self) -> int:
        """Position in the task's ring (unique within its replica)."""
        return self.table.task_id(self.row)

    @property
    def node(self) -> int:
        """The id of the hosting node."""
        return self.table.node_of(self.row)

    @property
    def neighbors(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """``(node_id, task_id)`` of the tasks whose iteration-(p) stamps
        gate this task's iteration p+1: its left and right ring neighbours."""
        return self.table.targets(self.row)

    @property
    def progress(self) -> int:
        return self.table.progress.item(self.row)

    @property
    def state(self) -> TaskState:
        return self.table.state[self.row]

    @property
    def epoch(self) -> int:
        return self.table.epoch[self.row]

    @property
    def pause_at(self) -> int | None:
        return self.table.pause_at[self.row]

    @property
    def iteration_cap(self) -> int | None:
        return self.table.cap

    @property
    def busy_until(self) -> float:
        return self.table.busy_until[self.row]

    @property
    def iterations_executed(self) -> int:
        return self.table.iterations_executed[self.row]

    @property
    def dep_stamps(self) -> dict[int, int]:
        """Highest stamp received from each neighbour this epoch (one key
        when both neighbours are the same task)."""
        table, row = self.table, self.row
        (_, left), (_, right) = table.targets(row)
        return {left: table.left_stamp[row], right: table.right_stamp[row]}

    # -- behaviour (the table's event-mode step for this row) -------------------------
    def restore(self, progress: int) -> None:
        self.table.restore(self.row, progress)

    def request_pause_at(self, iteration: int | None) -> None:
        """Ask the task to pause once its progress reaches ``iteration``.

        ``None`` pauses at the current progress (Phase-2 tentative pause);
        a concrete iteration is the decided checkpoint iteration (Phase 3).
        """
        self.table.request_pause_at(self.row, iteration)

    def resume(self) -> None:
        """Release a pause (checkpoint done, or the decision allows running
        on)."""
        self.table.resume(self.row)

    def on_dep_message(self, from_task: int, stamp: int, epoch: int) -> None:
        """Receive a neighbor's dependency stamp (idempotent, monotone)."""
        self.table.on_dep_message(self.row, from_task, stamp, epoch)

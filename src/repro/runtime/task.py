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
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable

from repro.util.errors import SimulationError

#: Dependency-stamp message size (paper §2.2 neighbor messages).
DEP_STAMP_NBYTES = 1024

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import Node
    from repro.runtime.soa import TaskProgressArray


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
    """One migratable application task (a chare, in Charm++ terms)."""

    __slots__ = ("task_id", "node", "neighbors", "iteration_time", "progress",
                 "state", "epoch", "dep_stamps", "pause_at", "iteration_cap",
                 "busy_until", "iterations_executed", "_soa", "_soa_index")

    def __init__(
        self,
        task_id: int,
        node: "Node",
        *,
        neighbors: Iterable[tuple[int, int]],
        iteration_time: Callable[[int, int], float],
    ):
        """
        Parameters
        ----------
        task_id:
            Globally unique id within the task's replica.
        node:
            Hosting node.
        neighbors:
            ``(node_id, task_id)`` pairs whose iteration-(p) messages gate this
            task's iteration p+1.
        iteration_time:
            ``f(task_id, iteration) -> seconds`` compute-time model; per-task
            jitter creates the progress skew the consensus protocol handles;
            one callable shared by every task of a replica.
        """
        self.task_id = task_id
        self.node = node
        #: A tuple: the stamp fan-out's target list, never changed.
        self.neighbors = tuple(neighbors)
        self.iteration_time = iteration_time
        self.progress = 0
        self.state = _IDLE
        self.epoch = 0
        #: Highest dependency stamp received from each neighbor this epoch.
        self.dep_stamps: dict[int, int] = {tid: -1 for _, tid in self.neighbors}
        #: Pause request: stop after completing this iteration (None = run).
        self.pause_at: int | None = None
        #: Hard cap on progress for bounded runs (never exceeded, survives
        #: rollbacks); None = unbounded.
        self.iteration_cap: int | None = None
        #: Simulated instant the in-flight iteration completes; meaningful
        #: only while COMPUTING.
        self.busy_until = 0.0
        self.iterations_executed = 0
        #: Optional struct-of-arrays mirror of ``progress``; bound by the
        #: framework so monitor-wide at-cap/rework checks are O(1)/vectorized
        #: (see soa.py).  Progress assignments are the only writers.
        self._soa: "TaskProgressArray | None" = None
        self._soa_index = -1

    def bind_progress(self, soa: "TaskProgressArray", index: int) -> None:
        """Mirror this task's progress into a :class:`TaskProgressArray`."""
        self._soa = soa
        self._soa_index = index
        soa.progress[index] = self.progress

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Begin execution: announce the initial stamp and try to compute."""
        self._announce_progress()
        self._try_start()

    def kill(self) -> None:
        """The hosting node died: abort any in-flight compute.

        The pending completion stays queued; it finds the task DEAD (or, after
        a restore, in a newer epoch) and is dropped.
        """
        self.state = _DEAD

    def restore(self, progress: int) -> None:
        """Roll back (or forward) to a checkpointed iteration.

        Bumps the epoch (discarding stale in-flight messages), resets the
        dependency view, and re-announces the restored stamp — the "resend"
        that prevents the hang scenario of §2.2.  The epoch bump also retires
        any in-flight completion.
        """
        if self.node.ring is not None:
            self.node.ring.close()
        old = self.progress
        self.progress = int(progress)
        if self._soa is not None:
            self._soa.stamp(self._soa_index, old, self.progress)
        self.epoch += 1
        self.dep_stamps = {tid: self.progress - 1 for _, tid in self.neighbors}
        self.pause_at = None
        self.state = _IDLE
        self._announce_progress()
        self._try_start()

    # -- consensus protocol hooks ---------------------------------------------------
    def request_pause_at(self, iteration: int | None) -> None:
        """Ask the task to pause once its progress reaches ``iteration``.

        ``None`` pauses at the current progress (Phase-2 tentative pause);
        a concrete iteration is the decided checkpoint iteration (Phase 3).
        """
        if self.node.ring is not None:
            self.node.ring.close()
        if self.state is _DEAD:
            return
        self.pause_at = self.progress if iteration is None else int(iteration)
        bound = self._pause_bound()
        if self.state is _IDLE and bound is not None and self.progress >= bound:
            self.state = _PAUSED
            self.node.on_task_ready_for_checkpoint(self)

    def resume(self) -> None:
        """Release a pause (checkpoint done, or the decision allows running on).

        On a fast-forwarded ring this is a read: a task that is not paused
        keeps running untouched; only one parked at the cap closes the
        window first.
        """
        ring = self.node.ring
        if ring is not None:
            if not ring.is_paused(self):
                return
            ring.close()
        if self.state is _DEAD:
            return
        self.pause_at = None
        if self.state is _PAUSED:
            self.state = _IDLE
        self._try_start()

    def resume_if_below(self) -> None:
        """Un-pause a task whose pause bar moved above its progress (Phase 3:
        the decided iteration is beyond the tentative local-max pause)."""
        bound = self._pause_bound()
        if self.state is _PAUSED and (bound is None or self.progress < bound):
            self.state = _IDLE
            self._try_start()

    # -- execution engine ---------------------------------------------------------
    def _pause_bound(self) -> int | None:
        p = self.pause_at
        c = self.iteration_cap
        if p is None:
            return c
        if c is None:
            return p
        return p if p < c else c

    def _try_start(self) -> None:
        # The task step: runs at least once per iteration per task, so the
        # pause bound and the dependency test are inlined (_pause_bound is the
        # readable form of the first) and state tests are identity checks.
        state = self.state
        if state is _COMPUTING or state is _DEAD:
            return
        progress = self.progress
        bound = self.pause_at
        cap = self.iteration_cap
        if bound is None or (cap is not None and cap < bound):
            bound = cap
        if bound is not None and progress >= bound:
            if state is not _PAUSED:
                self.state = _PAUSED
                self.node.on_task_ready_for_checkpoint(self)
            return
        for stamp in self.dep_stamps.values():
            if stamp < progress:
                self.state = _IDLE
                return
        self.state = _COMPUTING
        duration = self.iteration_time(self.task_id, progress + 1)
        if duration <= 0:
            raise SimulationError(f"iteration_time must be positive, got {duration}")
        sim = self.node.sim
        self.busy_until = sim.now + duration
        # No handle: a stale completion is dropped by its epoch (see
        # _on_iteration_done), so nothing ever needs to cancel it.
        sim.post(duration, self._on_iteration_done, self.epoch)

    def _on_iteration_done(self, epoch: int) -> None:
        if epoch != self.epoch or self.state is _DEAD:
            return  # stale completion from before a kill or rollback
        progress = self.progress + 1
        self.progress = progress
        if self._soa is not None:
            self._soa.stamp(self._soa_index, progress - 1, progress)
        self.iterations_executed += 1
        self.state = _IDLE
        self._announce_progress()
        self.node.on_task_progress(self)
        self._try_start()

    def _announce_progress(self) -> None:
        """Send the dependency stamp for the just-completed iteration.

        Stamps go out once per task per iteration per neighbor — the app
        firehose — so the whole fan-out rides one
        :meth:`~repro.runtime.messages.Transport.send_stamps` event
        (observably identical to per-neighbor ``send_small`` calls: the
        per-call sends share one delay and consecutive sequence numbers, so
        nothing could ever interleave between their deliveries).
        """
        node = self.node
        node.transport.send_stamps(
            node.node_id, self.neighbors,
            self.task_id, self.progress, self.epoch,
            nbytes=DEP_STAMP_NBYTES,
        )

    def on_dep_message(self, from_task: int, stamp: int, epoch: int) -> None:
        """Receive a neighbor's dependency stamp (idempotent, monotone)."""
        if self.state is _DEAD:
            return
        if epoch < self.epoch:
            return  # pre-rollback traffic: flushed
        stamps = self.dep_stamps
        prev = stamps.get(from_task, -1)
        if stamp > prev:
            stamps[from_task] = stamp
        if self.state is not _IDLE:
            return
        # Skip _try_start while some dependency still lags: an IDLE task
        # always sits below its pause bound (every transition into IDLE runs
        # _try_start, which parks it PAUSED otherwise), so with unsatisfied
        # deps the call would be a pure no-op — and roughly half the stamp
        # deliveries in a ring arrive before the task's other neighbor.
        progress = self.progress
        for s in stamps.values():
            if s < progress:
                return
        self._try_start()

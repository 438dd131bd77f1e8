"""One table for every task of a job: the tasks' single source of truth.

A paper-scale run has 2×16 Ki engine nodes and more.  One Python object
per task -- with its own dependency dict, neighbour tuple and a task list
per node -- made construction and every whole-replica pass cost one
interpreter step per task.  :class:`TaskTable` holds every task of every
ring, ring-major (for ``ACR``: replica-major), as columns:

* Python lists for the fields the event-mode step reads one value at a
  time: state, epoch, ``pause_at``, ``busy_until``,
  ``iterations_executed`` and the left/right dependency stamps (a list
  read costs about what a slot read does; a numpy element, several times
  more);
* one numpy column for progress, with an O(1) below-cap counter, so "is
  every task at the iteration cap?" is an integer compare and the ring
  fast-forward writes a run of progress stamps at once
  (:meth:`TaskTable.assign`).

The iteration cap is one value for the whole table.  Neighbours come from
the ring shape: row ``g`` of ring ``r`` is task ``i = g - r*size``, gated by
tasks ``i-1`` and ``i+1`` (mod ``size``) of the same ring.

A node is an id.  The table hosts the tasks of nodes ``0 .. nodes-1``:
node ``k`` runs rows ``[k*tpn, (k+1)*tpn)``, so each ring covers whole
nodes.  The table is the transport receiver of its node ids (dependency
stamps arrive by node id, :meth:`TaskTable.on_stamp`), answers a node's
rows, whether they are all ready and a node kill, and holds the one hook of
each kind the framework installs (``on_progress``, ``on_all_tasks_ready``,
called with the node id) and the open window of each ring (``windows``).

The event-mode step (paper §2.2: dependency-gated iterations, pauses,
epochs; see :mod:`repro.runtime.task`) lives here, one row at a time: an
iteration completion is posted as ``(_on_iteration_done, row, epoch)``.  A
:class:`~repro.runtime.task.Task` is a view ``(table, row)``, built on first
use and cached here; stamp delivery and resume enter through it, and tests
and tools read tasks through it.  Building a table, and every window of the
ring fast-forward (:mod:`repro.runtime.ring`), creates no view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.runtime.task import (
    _COMPUTING,
    _DEAD,
    _IDLE,
    _PAUSED,
    DEP_STAMP_NBYTES,
    Task,
)
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.des import Simulator
    from repro.runtime.messages import Message, Transport
    from repro.runtime.ring import RingFastForward

__all__ = ["TaskTable"]

IterationTime = Callable[[int, int], float]


class TaskTable:
    """Every task of ``rings`` equal rings over ``nodes`` nodes, as columns."""

    __slots__ = ("sim", "transport", "size", "tasks_per_node",
                 "iteration_time", "progress", "cap", "below_cap", "state",
                 "epoch", "pause_at", "busy_until", "iterations_executed",
                 "left_stamp", "right_stamp", "windows", "on_progress",
                 "on_all_tasks_ready", "_views", "_fanout")

    def __init__(
        self,
        sim: "Simulator",
        transport: "Transport",
        nodes: int,
        *,
        iteration_time: IterationTime | Sequence[IterationTime],
        rings: int = 1,
        tasks_per_node: int = 1,
    ):
        """
        Parameters
        ----------
        nodes:
            Number of nodes: node ``k`` (its id) runs rows
            ``[k*tasks_per_node, (k+1)*tasks_per_node)``.  The table
            registers ids ``0 .. nodes-1`` with ``transport``.
        iteration_time:
            ``f(task_id, iteration) -> seconds`` compute-time model, one per
            ring (or one callable for all); ``task_id`` is the task's
            position in its ring.
        rings:
            Number of rings; each covers ``nodes // rings`` nodes.
        """
        if rings < 1 or nodes < 1 or nodes % rings:
            raise ValueError(f"{nodes} nodes do not split into {rings} rings")
        if tasks_per_node < 1:
            raise ValueError("tasks_per_node must be >= 1")
        if callable(iteration_time):
            iteration_time = [iteration_time] * rings
        if len(iteration_time) != rings:
            raise ValueError("need one iteration-time model per ring")
        n = nodes * tasks_per_node
        self.sim = sim
        self.transport = transport
        #: Tasks per ring.
        self.size = n // rings
        self.tasks_per_node = tasks_per_node
        self.iteration_time = list(iteration_time)
        self.progress = np.zeros(n, dtype=np.int64)
        #: Hard cap on progress for bounded runs (never exceeded, survives
        #: rollbacks); None = unbounded.  Set with :meth:`set_cap`.
        self.cap: int | None = None
        self.below_cap = n
        self.state = [_IDLE] * n
        self.epoch = [0] * n
        #: Pause request: stop after completing this iteration (None = run).
        self.pause_at: list[int | None] = [None] * n
        #: Simulated instant the in-flight iteration completes; meaningful
        #: only while COMPUTING.
        self.busy_until = [0.0] * n
        self.iterations_executed = [0] * n
        #: Highest dependency stamp received this epoch from the left and
        #: the right neighbour.  In a ring of one or two tasks both are the
        #: same task, and a stamp from it updates both.
        self.left_stamp = [-1] * n
        self.right_stamp = [-1] * n
        #: The fast-forward engine that owns each ring while its window is
        #: open (see ring.py); None in event mode.
        self.windows: list["RingFastForward | None"] = [None] * rings
        #: Hooks, one callable each, called with the node id: a task of the
        #: node finished an iteration; every task of the node is paused.
        self.on_progress: Callable[[int], None] | None = None
        self.on_all_tasks_ready: Callable[[int], None] | None = None
        self._views: dict[int, Task] = {}
        #: :meth:`targets` by row, filled on first use (event mode, reads).
        self._fanout: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
        for node in range(nodes):
            transport.register(node, self)

    # -- shape ---------------------------------------------------------------------
    def node_of(self, row: int) -> int:
        """The id of the node hosting ``row``."""
        return row // self.tasks_per_node

    def rows(self, node: int) -> range:
        """The rows of the tasks node ``node`` hosts."""
        first = node * self.tasks_per_node
        return range(first, first + self.tasks_per_node)

    def window(self, node: int) -> "RingFastForward | None":
        """The open window of ``node``'s ring (None: event mode)."""
        return self.windows[node * self.tasks_per_node // self.size]

    def task_id(self, row: int) -> int:
        """The row's position in its ring."""
        return row % self.size

    def ring_rows(self, ring: int) -> range:
        return range(ring * self.size, (ring + 1) * self.size)

    def targets(self, row: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """``((node_id, task_id), ...)`` of the row's left and right
        neighbours: the fan-out of its dependency stamp."""
        fanout = self._fanout.get(row)
        if fanout is None:
            size, tpn = self.size, self.tasks_per_node
            i = row % size
            base = row - i
            left, right = (i - 1) % size, (i + 1) % size
            fanout = self._fanout[row] = (((base + left) // tpn, left),
                                          ((base + right) // tpn, right))
        return fanout

    # -- views ---------------------------------------------------------------------
    def task(self, row: int) -> Task:
        """The view of ``row`` (built on first use, then cached)."""
        view = self._views.get(row)
        if view is None:
            view = self._views[row] = Task(self, row)
        return view

    def tasks(self, ring: int) -> list[Task]:
        """Views of every task of ``ring``, in task-id order."""
        return [self.task(g) for g in self.ring_rows(ring)]

    # -- progress and the cap ---------------------------------------------------------
    def set_cap(self, cap: int | None) -> None:
        """Install the iteration cap and (re)count tasks still below it."""
        self.cap = cap
        if cap is None:
            self.below_cap = len(self.progress)
        else:
            self.below_cap = int(np.count_nonzero(self.progress < cap))

    def set_progress(self, row: int, value: int) -> None:
        """Move one task's progress, keeping the below-cap count exact
        across forward progress *and* rollbacks."""
        progress = self.progress
        old = progress.item(row)
        progress[row] = value
        cap = self.cap
        if cap is not None:
            if old < cap <= value:
                self.below_cap -= 1
            elif value < cap <= old:
                self.below_cap += 1

    def assign(self, start: int, values: np.ndarray) -> None:
        """Move the run ``progress[start:start+len(values)]`` to ``values``
        at once (the vectorised :meth:`set_progress`)."""
        view = self.progress[start:start + len(values)]
        cap = self.cap
        if cap is not None:
            self.below_cap += (int(np.count_nonzero(values < cap))
                               - int(np.count_nonzero(view < cap)))
        view[:] = values

    @property
    def all_at_cap(self) -> bool:
        return self.below_cap == 0

    def min_progress(self) -> int:
        return int(self.progress.min()) if len(self.progress) else 0

    def all_at_least(self, bound: int) -> bool:
        """True when every task's progress is >= ``bound``."""
        return bool((self.progress >= bound).all())

    def rework_iterations(self) -> int:
        """Iterations executed beyond the progress kept, over all tasks."""
        executed = np.array(self.iterations_executed, dtype=np.int64)
        return int(np.maximum(executed - self.progress, 0).sum())

    # -- the event-mode step, one row at a time ------------------------------------------
    # Each method below is the behaviour of one task (paper §2.2); the
    # rationale for each rule is in repro.runtime.task.
    def start(self, row: int) -> None:
        """Begin execution: announce the initial stamp and try to compute."""
        self._announce(row)
        self._try_start(row)

    def kill(self, node: int) -> None:
        """Fail-stop ``node`` (§6.1): its ring's window closes, the transport
        stops delivering to and from it, and its tasks are DEAD.  A pending
        completion stays queued; it finds its task DEAD (or, after a
        restore, in a newer epoch) and is dropped.  A dead node cannot die
        twice: a second kill does nothing."""
        if not self.transport.alive[node]:
            return
        ring = self.window(node)
        if ring is not None:
            ring.close()
        self.transport.set_alive(node, False)
        tpn = self.tasks_per_node
        first = node * tpn
        self.state[first:first + tpn] = [_DEAD] * tpn

    def all_ready(self, node: int) -> bool:
        """Whether every task of ``node`` is paused (or dead)."""
        first = node * self.tasks_per_node
        return all(s is _PAUSED or s is _DEAD for s in
                   self.state[first:first + self.tasks_per_node])

    def restore(self, row: int, progress: int) -> None:
        """Roll back (or forward) to a checkpointed iteration: bump the
        epoch, reset the dependency view and re-announce the stamp."""
        ring = self.windows[row // self.size]
        if ring is not None:
            ring.close()
        progress = int(progress)
        self.set_progress(row, progress)
        self.epoch[row] += 1
        self.left_stamp[row] = self.right_stamp[row] = progress - 1
        self.pause_at[row] = None
        self.state[row] = _IDLE
        self._announce(row)
        self._try_start(row)

    def request_pause_at(self, row: int, iteration: int | None) -> None:
        """Pause the task once its progress reaches ``iteration`` (None: its
        current progress)."""
        ring = self.windows[row // self.size]
        if ring is not None:
            ring.close()
        state = self.state[row]
        if state is _DEAD:
            return
        progress = self.progress.item(row)
        pause = progress if iteration is None else int(iteration)
        self.pause_at[row] = pause
        cap = self.cap
        bound = pause if cap is None or pause < cap else cap
        if state is _IDLE and progress >= bound:
            self.state[row] = _PAUSED
            self._paused(row)

    def resume(self, row: int) -> None:
        """Release a pause.  On a fast-forwarded ring this is a read: a task
        that is not paused keeps running untouched; only one parked at the
        cap closes the window first."""
        ring = self.windows[row // self.size]
        if ring is not None:
            if not ring.is_paused(row - ring.first):
                return
            ring.close()
        state = self.state[row]
        if state is _DEAD:
            return
        self.pause_at[row] = None
        if state is _PAUSED:
            self.state[row] = _IDLE
        self._try_start(row)

    def resume_if_below(self, row: int) -> None:
        """Un-pause a task whose pause bar moved above its progress."""
        bound = self.pause_bound(row)
        if self.state[row] is _PAUSED and (
                bound is None or self.progress.item(row) < bound):
            self.state[row] = _IDLE
            self._try_start(row)

    def pause_bound(self, row: int) -> int | None:
        """The lower of the row's pause request and the cap (None: none)."""
        p = self.pause_at[row]
        c = self.cap
        if p is None:
            return c
        if c is None:
            return p
        return p if p < c else c

    def _try_start(self, row: int) -> None:
        # The task step: runs at least once per iteration per task, so the
        # pause bound is inlined (pause_bound is its readable form) and state
        # tests are identity checks.
        state = self.state[row]
        if state is _COMPUTING or state is _DEAD:
            return
        progress = self.progress.item(row)
        bound = self.pause_at[row]
        cap = self.cap
        if bound is None or (cap is not None and cap < bound):
            bound = cap
        if bound is not None and progress >= bound:
            if state is not _PAUSED:
                self.state[row] = _PAUSED
                self._paused(row)
            return
        if self.left_stamp[row] < progress or self.right_stamp[row] < progress:
            self.state[row] = _IDLE
            return
        self.state[row] = _COMPUTING
        ring, i = divmod(row, self.size)
        duration = self.iteration_time[ring](i, progress + 1)
        if duration <= 0:
            raise SimulationError(f"iteration_time must be positive, got {duration}")
        sim = self.sim
        self.busy_until[row] = sim.now + duration
        # No handle: a stale completion is dropped by its epoch (see
        # _on_iteration_done), so nothing ever needs to cancel it.
        sim.post(duration, self._on_iteration_done, row, self.epoch[row])

    def _on_iteration_done(self, row: int, epoch: int) -> None:
        if epoch != self.epoch[row] or self.state[row] is _DEAD:
            return  # stale completion from before a kill or rollback
        progress = self.progress
        done = progress.item(row) + 1
        progress[row] = done
        if done == self.cap:  # one step up reaches the cap only there
            self.below_cap -= 1
        self.iterations_executed[row] += 1
        self.state[row] = _IDLE
        self._announce(row)
        if self.on_progress is not None:
            self.on_progress(row // self.tasks_per_node)
        self._try_start(row)

    def _paused(self, row: int) -> None:
        """The task at ``row`` paused at its bound; fire
        ``on_all_tasks_ready`` once every task of its node has."""
        node = row // self.tasks_per_node
        if self.on_all_tasks_ready is not None and self.all_ready(node):
            self.on_all_tasks_ready(node)

    def _announce(self, row: int) -> None:
        """Send the dependency stamp for the just-completed iteration, the
        whole fan-out in one :meth:`~repro.runtime.messages.Transport.
        send_stamps` event."""
        self.transport.send_stamps(
            row // self.tasks_per_node, self.targets(row), row % self.size,
            self.progress.item(row), self.epoch[row],
            nbytes=DEP_STAMP_NBYTES)

    # -- the transport's receiver for every hosted node -------------------------------
    def on_stamp(self, node: int, to_task: int, from_task: int, stamp: int,
                 epoch: int) -> None:
        """Deliver a dependency stamp to task ``to_task`` of ``node`` (the
        transport calls this for live nodes only).  A stamp for a task not
        hosted at ``node`` is dropped."""
        tpn = self.tasks_per_node
        first = node * tpn
        i = to_task - first % self.size
        if 0 <= i < tpn:
            self.task(first + i).on_dep_message(from_task, stamp, epoch)

    def __call__(self, msg: "Message") -> None:
        # Dependency stamps arrive through on_stamp, heartbeats as sweeps,
        # protocol traffic through Transport.send_control: no Message is
        # ever addressed to a task host.
        raise SimulationError(
            f"node {msg.dst}: a task host takes no {msg.kind.value} messages")

    def on_dep_message(self, row: int, from_task: int, stamp: int,
                       epoch: int) -> None:
        """Receive a neighbour's dependency stamp (idempotent, monotone); a
        stamp from a task that is no neighbour is ignored."""
        state = self.state[row]
        if state is _DEAD or epoch < self.epoch[row]:
            return  # dead, or pre-rollback traffic: flushed
        size = self.size
        i = row % size
        left, right = self.left_stamp, self.right_stamp
        if from_task == (i - 1) % size and stamp > left[row]:
            left[row] = stamp
        if from_task == (i + 1) % size and stamp > right[row]:
            right[row] = stamp
        if state is not _IDLE:
            return
        # Skip _try_start while some dependency still lags: an IDLE task
        # always sits below its pause bound (every transition into IDLE runs
        # _try_start, which parks it PAUSED otherwise), so with unsatisfied
        # deps the call would be a pure no-op -- and roughly half the stamp
        # deliveries in a ring arrive before the task's other neighbour.
        progress = self.progress.item(row)
        if left[row] < progress or right[row] < progress:
            return
        self._try_start(row)

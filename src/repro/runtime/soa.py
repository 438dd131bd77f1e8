"""Struct-of-arrays hot state for paper-scale runs.

At 2×64Ki nodes the per-node/per-task Python objects are fine as the home of
*behaviour* (state machines, handlers), but any monitor-wide operation that
walks them — heartbeat send/check sweeps, the at-iteration-cap test that runs
once per completed iteration — turns into N attribute chases per tick and
dominates the run.  This module keeps the hot *state* in contiguous numpy
arrays so those operations become single vectorized expressions:

* :class:`NodeStateArrays` — liveness, last-heartbeat timestamps, and failure
  incarnations for a set of nodes.  Written through by :class:`~repro.runtime.
  node.Node` on the rare transitions (``die``/``revive``), read vectorized by
  the :class:`~repro.runtime.heartbeat.HeartbeatMonitor` sweeps every
  interval.
* :class:`TaskProgressArray` — per-task progress stamps plus an O(1)
  below-cap counter, so "are all 2·N·tpn tasks at the iteration cap?" is an
  integer compare instead of a generator sweep per progress event.

The arrays are *mirrors with a single writer*: exactly one object method owns
each transition (``Node.die``/``Node.revive`` for liveness, ``Task`` progress
assignment for stamps), and that method updates the object attribute and the
array together, so the two views cannot diverge.  Nothing here schedules
events or changes observable simulation behaviour — binding the arrays is a
pure representation change, which is what keeps the golden digests and trace
oracles bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NodeStateArrays", "TaskProgressArray"]


class NodeStateArrays:
    """Liveness / last-heartbeat / incarnation state for N nodes.

    Slots are assigned in the order node ids are passed to the constructor
    (the heartbeat monitor uses registration order, which is what fixes the
    sweep ordering contract).
    """

    __slots__ = ("ids", "slot_of", "alive", "last_seen", "failures_survived")

    def __init__(self, node_ids: list[int]):
        n = len(node_ids)
        self.ids = np.asarray(node_ids, dtype=np.int64)
        self.slot_of: dict[int, int] = {nid: i for i, nid in enumerate(node_ids)}
        self.alive = np.ones(n, dtype=bool)
        self.last_seen = np.zeros(n, dtype=np.float64)
        self.failures_survived = np.zeros(n, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    # -- single-writer transitions (called by Node.die / Node.revive) -----------
    def set_dead(self, slot: int) -> None:
        self.alive[slot] = False

    def set_alive(self, slot: int, failures_survived: int) -> None:
        self.alive[slot] = True
        self.failures_survived[slot] = failures_survived


class TaskProgressArray:
    """Progress stamps for T tasks with an O(1) all-at-cap test.

    ``below_cap`` counts tasks whose progress is < ``cap``; every progress
    assignment reports its old/new value through :meth:`stamp`, which keeps
    the counter exact across forward progress *and* rollbacks (restores can
    move stamps down, re-raising the count).
    """

    __slots__ = ("progress", "cap", "below_cap")

    def __init__(self, n_tasks: int):
        self.progress = np.zeros(n_tasks, dtype=np.int64)
        self.cap: int | None = None
        self.below_cap = n_tasks

    def __len__(self) -> int:
        return len(self.progress)

    def set_cap(self, cap: int | None) -> None:
        """Install the iteration cap and (re)count tasks still below it."""
        self.cap = cap
        if cap is None:
            self.below_cap = len(self.progress)
        else:
            self.below_cap = int(np.count_nonzero(self.progress < cap))

    def stamp(self, index: int, old: int, new: int) -> None:
        """Record ``task.progress`` moving from ``old`` to ``new``."""
        self.progress[index] = new
        cap = self.cap
        if cap is not None:
            if old < cap <= new:
                self.below_cap -= 1
            elif new < cap <= old:
                self.below_cap += 1

    def assign(self, start: int, values: np.ndarray) -> None:
        """Record a run of stamps ``progress[start:start+len(values)]``
        moving to ``values`` at once (the vectorised :meth:`stamp`)."""
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
        """True when every stamp is >= ``bound`` (vectorized rework check)."""
        return bool((self.progress >= bound).all())

"""Struct-of-arrays task progress for paper-scale runs.

At 2×64Ki nodes the per-task Python objects are fine as the home of
*behaviour* (state machines, handlers), but the at-iteration-cap test runs
once per completed iteration, and walking 2·N·tpn task objects for it would
dominate the run.  :class:`TaskProgressArray` keeps every task's progress
stamp in one numpy array plus an O(1) below-cap counter, so "are all tasks
at the iteration cap?" is an integer compare.

``Task`` progress assignment is the array's single writer: it updates the
task attribute and its stamp together (the ring fast-forward writes a run of
stamps at once through :meth:`TaskProgressArray.assign`), so the two views
cannot diverge.  Nothing here schedules events or changes observable
simulation behaviour.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TaskProgressArray"]


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

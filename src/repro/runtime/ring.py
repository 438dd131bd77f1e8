"""Fast-forward of one replica's task ring between protocol instants.

Tasks progress by messages, with no global barrier (paper §2.2).  Between
two protocol instants -- a fault, a consensus message, a checkpoint timer --
the only thing that happens in a healthy replica is ring progress, and that
progress is a max-plus recurrence.  Task ``i`` starts iteration ``k+1`` once
its own iteration ``k`` is done and both neighbours' iteration-``k`` stamps
have arrived::

    S[i,k+1] = max(C[i,k], A[i-1,k], A[i+1,k])
    C[i,k+1] = S[i,k+1] + tau(i,k+1)
    A[j,k]   = C[j,k] + d

with ``d = transport.small_delay(DEP_STAMP_NBYTES)`` and ``tau`` the app's
iteration time.  The event engine computes exactly these floats: a
completion fires at ``now + duration`` where ``now`` is the instant of the
event that started the iteration (the latest of the three conditions), and a
stamp is delivered at ``now + d``.  A max of floats is exact, and each step
is the same single addition, so the recurrence reproduces every completion
and stamp instant bit for bit.

While a *window* is open, :class:`RingFastForward` owns the ring: no task
completion or stamp delivery is posted.  The engine evaluates the recurrence
lazily, a chunk of rows at a time, behind one wake-up event, and posts only
the instants the rest of the program needs (``on_output``): when every task
of the ring reaches a watched progress level (the iteration cap, the rework
target).  Reads (:meth:`advance`, :meth:`refresh`) bring the ring's slice
of the task table (:class:`~repro.runtime.soa.TaskTable`) and the transport
counters up to ``sim.now`` without closing the window; :meth:`close` also
re-posts the in-flight completions and stamps as real events and hands the
ring back to the event engine.  Every read and write is on column slices:
no window builds a task view or walks the tasks in Python.

A window opens over a *base row* given per task: the rows it has completed
past the window's base iteration, its in-flight completion instant (or that
it is idle or paused), and the arrival instants of its stamps still in
flight.  A job start, a whole-replica restore, and the adoption of a ring
the event engine is running (:meth:`adopt`) are the three cases of that
one entry.

A consensus round pauses a ring without closing it (:meth:`hold`,
:meth:`release`): a task held at row ``h`` from instant ``T`` starts no
iteration past ``h`` until its release instant ``R``, and then none past the
decided row, so ``S[i,k+1]`` also takes the max with ``R[i,k+1]``.  The
rules for when a window may open and must close are in docs/protocols.md §7.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.runtime.des import EventHandle, Simulator
from repro.runtime.messages import Transport
from repro.runtime.soa import TaskTable
from repro.runtime.task import (
    _COMPUTING,
    _IDLE,
    _PAUSED,
    DEP_STAMP_NBYTES,
)

__all__ = ["RingFastForward"]

_NEG_INF = float("-inf")
_INF = float("inf")
#: Hold row of a task no round holds: past every row a window evaluates.
_FREE = np.iinfo(np.int64).max
#: What a closed window holds in place of its row buffers.
_NO_ROWS = np.empty((0, 0))
#: Task states by the codes :meth:`RingFastForward.refresh` computes.
_STATES = np.array([_IDLE, _COMPUTING, _PAUSED], dtype=object)
#: Rows per chunk: a window evaluates one row when it opens (many windows
#: close before their first completion), then 8, then twice the last, up
#: to :data:`_MAX_CHUNK`.  The chunk schedule only decides when the engine
#: wakes up to evaluate more rows -- never a simulated instant.
_SECOND_CHUNK = 8
_MAX_CHUNK = 256


def _floor(rows: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                      int, int]:
    """A floor -- rows past ``rows[i]`` start no earlier than ``at[i]`` --
    with the range of rows it can delay (_FREE rows: none)."""
    bound = rows[rows != _FREE]
    return rows, at, int(bound.min()) + 1, int(bound.max()) + 1


class RingFastForward:
    """Max-plus fast-forward for one ring of tasks (one replica)."""

    def __init__(
        self,
        table: TaskTable,
        ring: int,
        *,
        sim: Simulator,
        transport: Transport,
        row_times: Callable[[int, int], np.ndarray],
        on_output: Callable[[], None] | None = None,
    ):
        """
        Parameters
        ----------
        table, ring:
            The ring is ring ``ring`` of ``table``: rows ``first ..
            first+size-1``, hosted by whole nodes, each task gated by its
            left and right ring neighbours.
        row_times:
            ``row_times(first, count)`` -> ``(count, size)`` array of the
            tasks' iteration times for iterations ``first ..
            first+count-1``; must equal the ring's ``iteration_time``
            element for element.
        on_output:
            Called (no arguments) at each instant the whole ring reaches a
            watched progress level.
        """
        self.table = table
        self.sim = sim
        self.transport = transport
        n = self.size = table.size
        #: The ring's index in the table (its slot in ``table.windows``).
        self.index = ring
        first = self.first = ring * n
        tpn = table.tasks_per_node
        #: The ids of the ring's nodes, in row order.
        self.node_ids = list(range(first // tpn, (first + n) // tpn))
        #: Each task's node, as an offset into :attr:`node_ids`.
        self.task_node_pos = np.arange(n, dtype=np.intp) // tpn
        self._node_index = np.array(self.node_ids, dtype=np.intp)
        self._index = np.arange(n)
        self._left = (self._index - 1) % n
        self._right = (self._index + 1) % n
        self._row_times = row_times
        self._on_output = on_output
        self._d = transport.small_delay(DEP_STAMP_NBYTES)
        #: Counters (the ``sim.fast_forward.*`` metrics).
        self.windows_opened = 0
        self.adoptions = 0
        self.iterations = 0
        self.syncs = 0
        self.ties = 0
        self.open = False
        self._wake: EventHandle | None = None
        self._rework: int | None = None
        #: The consensus round engine evaluating a round over this ring
        #: (see core/consensus.py); any close hands the round back first.
        self.round = None
        #: Some release floor or round hold shapes the rows (``_release``).
        self._held = False
        #: A round's pause bound is in force (held, not yet resumed).
        self.parked = False

    # -- eligibility and entry ----------------------------------------------------
    def eligible(self) -> bool:
        """Whether the ring may be handed to the engine now: every node is
        alive."""
        return bool(self.transport.liveness()[self._node_index].all())

    def open_start(self) -> bool:
        """Open at job start instead of ``Task.start`` on every task."""
        if self.open or not self.eligible():
            return False
        cap = self.table.cap
        if cap is not None and cap <= 0:
            return False
        self._open(0, cap, announce=True)
        return True

    def resume(self) -> bool:
        """``Task.resume`` on every task of an open window, performed by the
        engine: releases a parked ring (:meth:`unpark`) and keeps the
        window.  A task parked at the cap parks there again, so tasks at the
        cap are left as the window holds them (docs/protocols.md §7).  False
        means the caller must resume the tasks itself (and may then
        :meth:`adopt` the ring)."""
        if self.round is not None:
            self.close()
        if not self.open:
            return False
        self.unpark()
        return True

    def restore(self, progress: int) -> bool:
        """``Task.restore(progress)`` on every task, performed by the engine
        (restore stamps included); declines -- after closing any open
        window -- when the ring cannot be fast-forwarded."""
        self.close()
        table = self.table
        cap = table.cap
        if not self.eligible() or (cap is not None and progress >= cap):
            return False
        base = int(progress)
        n, s = self.size, self.first
        e = s + n
        table.assign(s, np.full(n, base, dtype=np.int64))
        table.epoch[s:e] = [epoch + 1 for epoch in table.epoch[s:e]]
        table.left_stamp[s:e] = table.right_stamp[s:e] = [base - 1] * n
        table.pause_at[s:e] = [None] * n
        table.state[s:e] = [_IDLE] * n
        self._open(base, cap, announce=True)
        return True

    def adopt(self) -> bool:
        """Take the ring over from the event engine as it stands now.

        Every node must be alive and no round pause may be in force.  The
        ring's posted completions and stamp fan-outs of the current epoch
        leave the event queue and become the window's base row (a closing
        window re-posts whatever is still in flight), so each of those
        events happens exactly once, and no epoch moves.  Declines when one
        of them falls at exactly now: the tie rule could not place it.
        """
        if self.open or not self.eligible():
            return False
        table = self.table
        n, s = self.size, self.first
        e = s + n
        cap = table.cap
        epochs = table.epoch[s:e]
        epoch = epochs[0]
        if epochs.count(epoch) != n or table.pause_at[s:e].count(None) != n:
            return False
        progress = table.progress[s:e].copy()
        states = table.state[s:e]
        computing = np.array([state is _COMPUTING for state in states])
        paused = np.array([state is _PAUSED for state in states])
        idle = np.array([state is _IDLE for state in states])
        if not (computing | paused | idle).all():
            return False  # a dead task
        if paused.any() and (cap is None or (progress[paused] < cap).any()):
            return False
        deps = np.minimum(table.left_stamp[s:e], table.right_stamp[s:e])
        if (idle & (deps >= progress)).any():
            return False  # idle with nothing to wait for
        base = int(progress.min())
        if cap is not None and base >= cap:
            return False
        posted = self._posted(base, epoch)
        # Every computing task, and only those, has its completion queued.
        if posted is None or not np.array_equal(~np.isnan(posted[0]),
                                                computing):
            return False
        busy, stamps, taken = posted
        self.sim.withdraw(taken)
        self.adoptions += 1
        self._open(base, cap, done=progress - base, busy=busy, stamps=stamps)
        return True

    def _posted(self, base: int, epoch: int) -> tuple[
            np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray],
            list[tuple]] | None:
        """The ring's queued completions and stamp fan-outs of ``epoch``:
        ``(busy, (task, row, arrival), entries)`` as :meth:`_open` takes
        them, or None if one falls at exactly now."""
        table = self.table
        n, s = self.size, self.first
        now = self.sim.now
        transport = self.transport
        # The event-mode handlers, looked up now so that a wrapper installed
        # on the class is recognised too.
        iteration_done = type(table)._on_iteration_done
        deliver_stamps = type(transport)._deliver_stamps
        busy = np.full(n, np.nan)
        owner, rows, arrivals, taken = [], [], [], []
        for entry in self.sim.queued():
            callback = entry[3]
            func = getattr(callback, "__func__", None)
            if func is iteration_done and callback.__self__ is table:
                row, sent_epoch = entry[4]
                i = row - s
                if not (0 <= i < n) or sent_epoch != epoch:
                    continue  # another ring's, or a stale epoch's no-op
                busy[i] = entry[0]
            elif func is deliver_stamps and callback.__self__ is transport:
                targets, i, stamp, sent_epoch = entry[4]
                if (not (0 <= i < n) or sent_epoch != epoch
                        or targets != table.targets(s + i)):
                    continue
                owner.append(i)
                rows.append(stamp - base)
                arrivals.append(entry[0])
            else:
                continue
            if entry[0] == now:
                return None
            taken.append(entry)
        return busy, (np.array(owner, dtype=np.intp),
                      np.array(rows, dtype=np.int64), np.array(arrivals)), taken

    def _open(self, base: int, cap: int | None, *,
              done: np.ndarray | None = None, busy: np.ndarray | None = None,
              stamps: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
              announce: bool = False) -> None:
        """Open a window over the base row, given per task (rows relative
        to ``base``):

        * ``done`` -- rows completed (default: none past ``base``);
        * ``busy`` -- the in-flight completion instant of row ``done+1``,
          NaN for an idle or paused task (default: none in flight);
        * ``stamps`` -- ``(task, row, arrival)`` of every stamp fan-out in
          flight.

        ``announce`` is a start or restore: every task is at ``base``, done
        with it as of now, and sends its row-0 stamp now.  The task fields
        must be exact as of now already.
        """
        n = self.size
        now = self.sim.now
        if done is None:
            done = np.zeros(n, dtype=np.int64)
        if busy is None:
            busy = np.full(n, np.nan)
        computing = ~np.isnan(busy)
        if announce:
            stamps = (self._index, np.zeros(n, dtype=np.int64),
                      np.full(n, now + self._d))
        rows = 2 * _SECOND_CHUNK
        if cap is not None:
            rows = min(rows, cap - base + 1)
        self._base = base
        self._cap_row = None if cap is None else cap - base
        #: Last row any task may reach (the cap, or a round's decided row).
        self._last = self._cap_row
        self._held = self.parked = False
        self._version = 0
        self._C = np.empty((rows, n))
        self._A = np.empty((rows, n))
        self._S = np.empty((rows, n))
        # An idle task's own condition for its next row: met as of now after
        # a start or restore, long met for one that waits for stamps only.
        self._C[0] = now if announce else _NEG_INF
        q = done.copy()
        # Row 0, and the rows past it that the base row fixes (a task ahead
        # of ``base``, an in-flight completion or stamp): the recurrence
        # computes the latter, then _extend overwrites them with these pins
        # (NaN: not pinned).
        top = int((done + computing).max())
        self._pin_top = top
        row = np.arange(top + 1)[:, None]
        past = (row >= 1) & (row <= done)
        running = (row == done + 1) & computing
        pin_s = np.where(past | running, _NEG_INF, np.nan)
        pin_c = np.where(past, _NEG_INF, np.where(running, busy, np.nan))
        pin_a = np.where(past | (row == 0), _NEG_INF, np.nan)
        if stamps is not None and len(stamps[0]):
            owner, at, arrival = stamps
            np.minimum.at(q, owner, at - 1)
            pin_a[at, owner] = arrival
        self._A[0] = pin_a[0]
        self._pins = [(~np.isnan(pin), pin) for pin in (pin_s, pin_c, pin_a)]
        #: Rows ``_r0 .. _n`` (``_r0`` at index 0) are kept; rows every task
        #: has completed and delivered are dropped as new chunks arrive.
        self._r0 = 0
        self._n = 0
        #: Chunk-boundary wake-up instants, in order.
        self._bound_times: list[float] = []
        self._instants: dict[int, float] = {}
        self._chunk = 1
        self._p = done.copy()
        self._q = q
        self._at = now
        # The transport has been credited with everything up to the base
        # row; an announcement is credited here, its arrivals as they pass.
        self._sent = int(self._p.sum())
        self._delivered = int(self._q.sum())
        if announce:
            self._credit(n, 0)
        #: What a task's fields read below its base row.
        table, s = self.table, self.first
        self._done0 = done
        self._exec0 = np.array(table.iterations_executed[s:s + n],
                               dtype=np.int64) - done
        self._busy0 = np.array(table.busy_until[s:s + n])
        self.open = True
        self.windows_opened += 1
        table.windows[self.index] = self
        self._ensure(now)
        self._written = (int(self._p.sum()), int(self._q.sum()),
                         int(self._computing(now)[2].sum()), None)
        self.arm()

    # -- the recurrence --------------------------------------------------------------
    def _extend(self) -> None:
        """Evaluate the next chunk of rows."""
        n = self._n
        count = self._chunk
        self._chunk = min(max(2 * count, _SECOND_CHUNK), _MAX_CHUNK)
        if self._last is not None:
            count = min(count, self._last - n)
        if count <= 0:
            return
        r0 = self._r0
        if n + count - r0 + 1 > len(self._C):
            # Out of room: drop the rows no read can reach any more (every
            # task has completed them and delivered their stamps), then
            # grow, so a long window holds O(chunk) rows, not O(window).
            lo = max(min(int(self._p.min()), int(self._q.min())), r0)
            keep = n - lo + 1
            size = 2 * (keep + count)
            if self._last is not None:
                size = min(size, self._last - lo + 1)
            for name in ("_C", "_A", "_S"):
                old = getattr(self, name)
                new = np.empty((size, old.shape[1]))
                new[:keep] = old[lo - r0:n - r0 + 1]
                setattr(self, name, new)
            self._r0 = r0 = lo
        C, A, S = self._C, self._A, self._S
        tau = self._row_times(self._base + n + 1, count)
        left, right, d = self._left, self._right, self._d
        held = self._held
        top = self._pin_top
        for i in range(n + 1 - r0, n + count + 1 - r0):
            a = A[i - 1]
            s = S[i]
            np.maximum(C[i - 1], a[left], out=s)
            np.maximum(s, a[right], out=s)
            if held and self._binds(i + r0):
                np.maximum(s, self._release(i + r0), out=s)
            c = C[i]
            if i + r0 > top:
                np.add(s, tau[i + r0 - n - 1], out=c)
                np.add(c, d, out=A[i])
                continue
            (ms, ps), (mc, pc), (ma, pa) = self._pins
            row = i + r0
            np.copyto(s, ps[row], where=ms[row])
            np.add(s, tau[i + r0 - n - 1], out=c)
            np.copyto(c, pc[row], where=mc[row])
            np.add(c, d, out=A[i])
            np.copyto(A[i], pa[row], where=ma[row])
        self._n = n = n + count
        self._bound_times.append(float(C[n - r0].min()))

    def _more_rows(self) -> bool:
        return self._last is None or self._n < self._last

    # -- round holds ---------------------------------------------------------------------
    # Per task (rows relative to ``_base``): from ``_hold_at`` on, ``pause_at``
    # is the local bound ``_hold_row``; from ``_rel_at`` on it is the decided
    # row ``_rel_row``, and rows ``_hold_row+1 .. _rel_row`` start no earlier
    # than ``_rel_at``; rows past ``_rel_row`` wait for a resume.  A resume
    # (:meth:`unpark`) leaves *floors*: rows past ``rows[i]`` start no
    # earlier than ``at[i]`` (only the first of them can be affected).  A
    # floor is kept while a later hold could still make the engine
    # re-evaluate the row it binds.
    def _binds(self, row: int) -> bool:
        """Whether a hold or a floor can delay a start of ``row``: a floor
        only the first row past it (later rows start after a completion
        that itself came after the floor)."""
        if self.parked and row > self._hold_min:
            return True
        for _, _, lo, hi in self._floors:
            if lo <= row <= hi:
                return True
        return False

    def _release(self, row: int) -> np.ndarray:
        """Earliest start of ``row`` per task (-inf: no constraint)."""
        out = np.full(self.size, _NEG_INF)
        for rows, at, lo, hi in self._floors:
            if lo <= row <= hi:
                np.maximum(out, np.where(row > rows, at, _NEG_INF), out=out)
        if self.parked:
            held = np.where(row > self._rel_row, _INF, self._rel_at)
            held[row <= self._hold_row] = _NEG_INF
            np.maximum(out, held, out=out)
        return out

    def _hold_arrays(self) -> None:
        if self._held:
            return
        n = self.size
        self._floors: list[tuple[np.ndarray, np.ndarray, int, int]] = []
        self._hold_at = np.full(n, _INF)
        self._hold_row = np.full(n, _FREE, dtype=np.int64)
        self._rel_at = np.full(n, _INF)
        self._rel_row = np.full(n, _FREE, dtype=np.int64)
        self._held = True

    def _update_last(self) -> None:
        last = self._cap_row
        if self.parked:
            self._hold_min = int(self._hold_row.min())
            stop = int(self._rel_row.max())
            if last is None or stop < last:
                last = stop
        self._last = last

    def _truncate(self, row: int) -> None:
        """Forget the evaluated rows past ``row`` (their inputs changed)."""
        self._version += 1
        self._instants.clear()
        if row >= self._n:
            return
        self._n = row
        self._chunk = 1  # reads after a round's write need few rows
        self._bound_times = ([float(self._C[row - self._r0].min())]
                             if row > 0 else [])

    @property
    def base(self) -> int:
        """The iteration row 0 of the open window stands for."""
        return self._base

    def hold(self, idx: np.ndarray, at: float, rows: np.ndarray) -> None:
        """Consensus Phase 2 on tasks ``idx``: from instant ``at`` they pause
        after row ``rows`` (their node's local bound) until released."""
        self._hold_arrays()
        self._hold_at[idx] = at
        self._hold_row[idx] = rows
        self._rel_row[idx] = rows
        self._rel_at[idx] = _INF
        self.parked = True
        self._update_last()
        self._truncate(int(rows.min()))

    def release(self, idx: np.ndarray, at: np.ndarray, row: int) -> None:
        """Consensus Phase 3 on held tasks ``idx``: from instants ``at`` they
        run on to the decided ``row`` and pause there."""
        self._rel_at[idx] = at
        self._rel_row[idx] = row
        self._update_last()
        self._truncate(int(self._hold_row[idx].min()))

    def unpark(self) -> None:
        """``Task.resume`` on every task of a parked window (the round is
        over or abandoned): rows past the pause bound in force now start no
        earlier than now, and the round's releases so far stay floors."""
        if not self.parked:
            return
        now = self.sim.now
        self.advance()
        held = self._hold_at <= now
        pause = self._pause_rows(now)
        # A floor matters while some task has not completed the row it binds
        # (every truncation lies at or above the lowest progress).
        low = int(self._p.min())
        floors = [f for f in self._floors if f[3] > low]
        # A released task started its rows past the hold no earlier than
        # its release (rows past the decided row are the new floor's).
        ran = (held & (self._rel_at <= now) & (self._hold_row < self._rel_row)
               & (self._hold_row >= low))
        if ran.any():
            floors.append(_floor(np.where(ran, self._hold_row, _FREE),
                                 np.where(ran, self._rel_at, _NEG_INF)))
        if (pause != _FREE).any():
            floors.append(_floor(pause, np.full(len(pause), now)))
        self._floors = floors
        # A task's rows change past the bound in force, or past a hold that
        # will not come now.
        changed = int(np.where(held, pause, self._hold_row).min())
        self._hold_at[:] = _INF
        self._hold_row[:] = _FREE
        self._rel_at[:] = _INF
        self._rel_row[:] = _FREE
        self.parked = False
        self._update_last()
        self._truncate(changed)
        self._ensure(now)
        self.arm()

    def _pause_rows(self, now: float) -> np.ndarray:
        """Each task's ``pause_at`` row in force at ``now`` (_FREE: None)."""
        return np.where(self._hold_at <= now,
                        np.where(self._rel_at <= now, self._rel_row,
                                 self._hold_row), _FREE)

    def state_at(self, when: float,
                 idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """``(progress rows, computing flags, ties)`` of tasks ``idx`` as a
        read at instant ``when`` >= now would find them, given the holds in
        force.  ``ties`` counts the tasks whose completion or start falls at
        exactly ``when`` (ring events at a protocol instant count as
        committed before it)."""
        self.advance()
        self._ensure(when)
        n, r0 = self._n, self._r0
        C, S = self._C, self._S
        lo = int(self._p[idx].min()) + 1
        rows = (lo - 1) + np.count_nonzero(
            C[lo - r0:n + 1 - r0][:, idx] <= when, axis=0)
        nxt = np.minimum(rows + 1, n) - r0
        start = S[nxt, idx]
        below = rows < n
        if self._cap_row is not None:
            below &= rows < self._cap_row
        computing = (start <= when) & below
        ties = (int(np.count_nonzero((C[rows - r0, idx] == when) & (rows > 0)))
                + int(np.count_nonzero((start == when) & below)))
        return rows, computing, ties

    def completions(self, row: int) -> np.ndarray:
        """Every task's completion instant of ``row`` (a copy)."""
        while self._n < row and self._more_rows():
            self._extend()
        if self._n < row:
            raise ValueError(f"row {row} lies past the ring's last row")
        return self._C[row - self._r0].copy()

    def _ensure(self, now: float) -> None:
        """Evaluate rows until every task's next completion lies after
        ``now`` (or the ring reaches the cap)."""
        while self._more_rows() and (
                self._n == 0 or self._bound_times[-1] <= now):
            self._extend()

    def times_through(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """``(completions, arrivals)`` of iterations ``base+1 .. level``,
        one row per iteration, one column per task (read-only views; a
        stamp's arrival is the instant its neighbours receive it)."""
        rows = level - self._base
        while self._n < rows and self._more_rows():
            self._extend()
        rows = min(rows, self._n)
        r0 = self._r0
        if r0 > 1:
            raise ValueError("rows already dropped; read before advancing")
        return self._C[1 - r0:rows + 1 - r0], self._A[1 - r0:rows + 1 - r0]

    def _level_instant(self, level: int | None) -> float | None:
        """When the last task of the ring reaches ``level`` (None: not yet
        evaluated, or nothing to wait for; -inf: long past)."""
        if level is None:
            return None
        t = self._instants.get(level)
        if t is None:
            row = level - self._base
            if row <= 0 or row > self._n:
                return None
            if row < self._r0:
                return _NEG_INF
            t = float(self._C[row - self._r0].max())
            if t == _INF:
                return None  # a task waits for a round's release
            self._instants[level] = t
        return t

    # -- wake-ups and outputs ----------------------------------------------------------
    def watch_rework(self, level: int | None) -> None:
        """Also report the instant the ring reaches ``level`` (None: stop)."""
        self._rework = level
        if self.open:
            self.arm()

    def _watched(self) -> tuple[int | None, int | None]:
        cap = None if self._cap_row is None else self._base + self._cap_row
        return cap, self._rework

    def arm(self) -> None:
        """(Re)schedule the single wake-up at the next chunk boundary or
        watched-level instant after now."""
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        now = self.sim.now
        times = []
        if self._more_rows():
            for t in self._bound_times:
                if t > now:
                    if t < _INF:
                        times.append(t)
                    break
        for level in self._watched():
            t = self._level_instant(level)
            if t is not None and t > now:
                times.append(t)
        if times:
            self._wake = self.sim.schedule_at(min(times), self._on_wake)

    def _on_wake(self) -> None:
        self._wake = None
        now = self.sim.now
        self.advance()  # also keeps the row compaction bound current
        fire = any(self._level_instant(level) == now
                   for level in self._watched())
        self.arm()
        if fire and self._on_output is not None:
            self._on_output()

    # -- reads ---------------------------------------------------------------------------
    def advance(self) -> None:
        """Bring the ring's progress stamps (and the engine's own counts) up
        to ``sim.now``; the window stays open."""
        now = self.sim.now
        if not self.open or now == self._at:
            return
        self._at = now
        self._ensure(now)
        n, r0 = self._n, self._r0
        p = self._p
        lo = int(p.min()) + 1
        if lo <= n:
            new = (lo - 1) + np.count_nonzero(
                self._C[lo - r0:n + 1 - r0] <= now, axis=0)
            moved = int(new.sum() - p.sum())
            if moved:
                self.iterations += moved
                self._p = new
                self.table.assign(self.first, self._base + new)
        q = self._q
        lo = int(q.min()) + 1
        if lo <= n:
            self._q = (lo - 1) + np.count_nonzero(
                self._A[lo - r0:n + 1 - r0] <= now, axis=0)

    def reached(self, level: int) -> bool:
        """Whether every task of the open window has progress >= ``level``
        now -- without touching the progress array.

        Exact because the chunk wake-ups keep the evaluated rows ahead of
        ``sim.now``: a level whose row is not evaluated yet lies in the
        future.
        """
        if level <= self._base:
            return True
        t = self._level_instant(level)
        return t is not None and t <= self.sim.now

    def is_paused(self, i: int) -> bool:
        """Whether the ring's task ``i`` is paused now (in a window: parked
        at the cap or at a round's pause bound)."""
        self.advance()
        p = int(self._p[i])
        if self._cap_row is not None and p == self._cap_row:
            return True
        return self.parked and p >= int(self._pause_rows(self.sim.now)[i])

    def _computing(self, now: float) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """``(row index, next row index, computing flags)`` per task as of
        ``now`` (rows as buffer indices)."""
        p = self._p
        at = p - self._r0
        nxt = np.minimum(at + 1, self._n - self._r0)
        computing = self._S[nxt, self._index] <= now
        computing &= p < self._n
        if self._cap_row is not None:
            computing &= p < self._cap_row
        return at, nxt, computing

    def refresh(self) -> None:
        """Write the exact state as of ``sim.now`` into the ring's slice of
        the task table and the transport counters; the window stays open."""
        if not self.open:
            return
        self.advance()
        self._flush_counters()
        now = self.sim.now
        base, cap_row = self._base, self._cap_row
        p = self._p
        idx = self._index
        at, nxt, computing = self._computing(now)
        # p, q and (for a given p) the computing flags only ever grow, so
        # equal sums mean the columns written last time are still exact;
        # a round's pause bounds change at their own instants.
        pause = None
        phase = None
        if self._held:
            pause = (self._pause_rows(now) if self.parked
                     else np.full(len(p), _FREE, dtype=np.int64))
            held = pause != _FREE
            phase = (self._version, int(np.count_nonzero(held)),
                     int(pause[held].sum()))
        written = (int(p.sum()), int(self._q.sum()), int(computing.sum()),
                   phase)
        if written == self._written:
            return
        self._written = written
        table, s = self.table, self.first
        e = s + len(p)
        # The progress column is exact already (advance writes it).  A task
        # below its base row still shows the completion it had then.
        table.busy_until[s:e] = np.where(
            computing, self._C[nxt, idx],
            np.where(p > self._done0, self._C[at, idx], self._busy0)).tolist()
        table.iterations_executed[s:e] = (self._exec0 + p).tolist()
        if pause is None:
            bound = _FREE if cap_row is None else cap_row
        else:
            bound = pause if cap_row is None else np.minimum(pause, cap_row)
            pause_at = (base + np.where(held, pause, 0)).astype(object)
            pause_at[~held] = None
            table.pause_at[s:e] = pause_at.tolist()
        table.state[s:e] = _STATES[np.where(
            computing, 1, np.where(p >= bound, 2, 0))].tolist()
        stamps = base + self._q
        table.left_stamp[s:e] = stamps[self._left].tolist()
        table.right_stamp[s:e] = stamps[self._right].tolist()

    def _flush_counters(self) -> None:
        """Credit the transport with the ring's sends and deliveries up to
        the last :meth:`advance`."""
        sent, delivered = int(self._p.sum()), int(self._q.sum())
        self._credit(sent - self._sent, delivered - self._delivered)
        self._sent, self._delivered = sent, delivered

    def _credit(self, batches: int, deliveries: int) -> None:
        """Credit the transport with ``batches`` stamp fan-outs sent and
        ``deliveries`` fan-outs delivered (two messages each)."""
        tr = self.transport
        if batches:
            msgs = 2 * batches
            tr.messages_sent += msgs
            tr.sent_by_kind["app"] += msgs
            tr.bytes_by_kind["app"] += msgs * DEP_STAMP_NBYTES
            tr.batched_messages += msgs
            tr.batch_events += batches
        if deliveries:
            tr.messages_delivered += 2 * deliveries

    # -- sync --------------------------------------------------------------------------
    def close(self) -> None:
        """Sync: make the state exact as of ``sim.now``, re-post every
        in-flight completion and stamp as a real event, and hand the ring
        back to the event engine.

        Tie rule: a ring event at exactly ``now`` counts as committed before
        the protocol event that closes the window; each one is counted in
        :attr:`ties`.
        """
        if self.round is not None:
            self.round.materialize()  # closes this ring too
        if not self.open:
            return
        now = self.sim.now
        self.refresh()
        n, r0 = self._n, self._r0
        C, A, S = self._C, self._A, self._S
        rows = n + 1 - r0
        self.ties += (int(np.count_nonzero(C[1 if r0 == 0 else 0:rows] == now))
                      + int(np.count_nonzero(A[:rows] == now)))
        base, cap_row = self._base, self._cap_row
        p, q, idx = self._p, self._q, self._index
        # In flight: the completion of row p+1 of each task that started it,
        # and the stamps of rows q+1 .. p (stamps arrive in row order).
        comp = p < n
        if cap_row is not None:
            comp &= p < cap_row
        nxt = np.minimum(p + 1, n) - r0
        comp &= S[nxt, idx] <= now
        ci = idx[comp]
        count = p - q
        if len(ci) or count.any():
            si = np.repeat(idx, count)
            sr = (np.arange(len(si)) + np.repeat(q + 1 - np.cumsum(count)
                                                 + count, count))
            time = np.concatenate((C[nxt[ci], ci], A[sr - r0, si]))
            after = np.concatenate((S[nxt[ci], ci], C[sr - r0, si]))
            task = np.concatenate((ci, si))
            kind = np.repeat((0, 1), (len(ci), len(si)))
            row = np.concatenate((p[ci], sr))
            order = np.lexsort((row, kind, task, after, time))
            post_at = self.sim.post_at
            deliver = self.transport._deliver_stamps
            table, s = self.table, self.first
            epochs = table.epoch
            done = table._on_iteration_done
            for at, i, k, r in zip(time[order].tolist(), task[order].tolist(),
                                   kind[order].tolist(), row[order].tolist()):
                g = s + i
                if k == 0:
                    post_at(at, done, g, epochs[g])
                else:
                    post_at(at, deliver, table.targets(g), i, base + r,
                            epochs[g])
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        self.table.windows[self.index] = None
        self.open = False
        self._held = self.parked = False
        self.syncs += 1
        self._C = self._A = self._S = _NO_ROWS

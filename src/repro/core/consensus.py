"""Distributed asynchronous checkpoint consensus (paper §2.2, Fig. 3).

Deciding *when* everyone checkpoints cannot be a simple broadcast: tasks
progress at different rates, and checkpointing task ``a`` at iteration ``i``
while task ``b`` already sent its iteration-``i+1`` messages would lose
in-flight traffic and hang the restart (the paper's motivating example).

The four phases, implemented entirely with control messages over the
simulated transport (so latency and fail-stop semantics apply):

1. every node tracks the maximum progress of its local tasks;
2. on a checkpoint request, an asynchronous tree reduction finds the global
   maximum progress; tasks that reach their node's local maximum pause so
   nobody runs past the possible checkpoint iteration;
3. the decided checkpoint iteration (the global max) is broadcast; tasks
   below it resume and run exactly up to it, tasks at it stay paused;
4. when every task has reached the checkpoint iteration, a second reduction
   reports readiness and checkpointing begins.

A *round* can be aborted (e.g. a node died mid-reduction); stale messages
from dead rounds are ignored by round-id filtering.

When every node in scope is alive and its replica's task ring is
fast-forwarded (:mod:`repro.runtime.ring`), :class:`RoundEngine` evaluates
the whole round at its start as one max-plus system on the tree instead of
posting one event per message; any outside write before the round's
completion hands it back to the message path here (docs/protocols.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.soa import TaskTable
from repro.runtime.task import TaskState
from repro.util.errors import SimulationError

#: Size of every consensus control message.
CONTROL_NBYTES = 64


@dataclass
class _AgentState:
    """Per-node protocol state for one consensus round."""

    parent: int | None
    children: list[int]
    pending_max: set[int] = field(default_factory=set)
    local_bound: int = 0
    subtree_max: int = 0
    decided: int | None = None
    pending_ready: set[int] = field(default_factory=set)
    local_ready_sent: bool = False
    ready_sent_up: bool = False


class ConsensusController:
    """Drives consensus rounds over any scope of the nodes of ``table``."""

    def __init__(self, table: TaskTable):
        #: The task table hosting the nodes (their rows, ring windows and
        #: the all-ready hook this controller installs).
        self.table = table
        self.transport = table.transport
        self.round_id = 0
        self.active = False
        self.scope: list[int] = []
        self._agents: dict[int, _AgentState] = {}
        self.on_complete: Callable[[int, int], None] | None = None
        self.decided_iteration: int | None = None
        self.rounds_started = 0
        self.rounds_completed = 0
        self.rounds_aborted = 0
        #: Telemetry tracer (a no-op unless the framework installs a real
        #: one).  Each round emits a ``consensus.round`` span with the four
        #: protocol sub-phases as children.
        self.tracer = NULL_TRACER
        #: Telemetry metrics registry (no-op by default); completed rounds
        #: feed a wall-time histogram.
        self.metrics = NULL_METRICS
        self._sim = table.sim
        self._round_span = None
        self._t_start = 0.0
        self._t_decided = 0.0
        self._t_last_decision = 0.0
        self._t_last_ready = 0.0
        table.on_all_tasks_ready = self._on_node_all_ready
        #: The task rings over these nodes (``RingFastForward``; installed by
        #: the framework).  Each round start and abort hands every closed
        #: one that can be fast-forwarded back to its engine.
        self.rings: list = []
        self.engine = RoundEngine(self)
        self._sim.return_hooks.append(self.engine.flush)

    # -- round lifecycle --------------------------------------------------------
    def start_round(self, scope: list[int],
                    on_complete: Callable[[int, int], None],
                    *, span_parent=None) -> int:
        """Begin a consensus round over ``scope`` (list of node ids).

        ``on_complete(round_id, iteration)`` fires when every task in scope is
        paused at the decided iteration.  Returns the round id.
        ``span_parent`` parents this round's telemetry span (e.g. under the
        enclosing checkpoint or medium-recovery span).
        """
        if self.active:
            raise SimulationError("consensus round already active")
        if not scope:
            raise SimulationError("empty consensus scope")
        self.round_id += 1
        self.rounds_started += 1
        self.active = True
        now = self._sim.now
        self._t_start = self._t_decided = now
        self._t_last_decision = self._t_last_ready = now
        self._round_span = self.tracer.begin(
            "consensus.round", now, parent=span_parent,
            round=self.round_id, scope=len(scope))
        self.scope = list(scope)
        self.on_complete = on_complete
        self.decided_iteration = None
        self._agents = {}
        # A ring the event engine runs (after an abort, a fallback, a
        # message-path round) is taken back first, so the round over it can
        # be evaluated whole; with a dead node in scope it could not be.
        closed = [ring for ring in self.rings if not ring.open]
        if closed and self.engine.alive(self.scope):
            for ring in closed:
                ring.adopt()
        if self.engine.eligible(self.scope):
            self.engine.start()
            return self.round_id
        index_of = {nid: i for i, nid in enumerate(self.scope)}
        for nid in self.scope:
            i = index_of[nid]
            parent = self.scope[(i - 1) // 2] if i > 0 else None
            children = [self.scope[c] for c in (2 * i + 1, 2 * i + 2)
                        if c < len(self.scope)]
            self._agents[nid] = _AgentState(parent=parent, children=children,
                                            pending_max=set(children))
        # Kick off Phase 1/2 at the root; the request floods down the tree.
        root = self.scope[0]
        self._send(root, root, self._on_start, self.round_id)
        return self.round_id

    def abort_round(self) -> None:
        """Abandon the active round (a node died mid-protocol); paused tasks
        are released so the application can drain or recover."""
        if not self.active:
            return
        self.engine.materialize(close_rings=False)
        self.active = False
        self.rounds_aborted += 1
        self.tracer.end(self._round_span, self._sim.now, aborted=True)
        self._round_span = None
        table, alive = self.table, self.transport.alive
        for nid in self.scope:
            if not alive[nid]:
                # A dead node's tasks must stay dead until its recovery
                # restores them; resuming them here would resurrect work on a
                # failed node behind the recovery machinery's back.
                continue
            ring = table.window(nid)
            if ring is not None:
                # Still fast-forwarded: parked by the engine's round (which
                # releases it in place) or not reached by the round at all.
                ring.unpark()
                continue
            for row in table.rows(nid):
                table.task(row).resume()
        self._agents = {}
        for ring in self.rings:
            ring.adopt()

    # -- message plumbing ----------------------------------------------------------
    def _send(self, src: int, dst: int,
              handler: Callable[[int, int, object], None], payload) -> None:
        """Ship one protocol message; ``handler(src, dst, payload)`` is the
        phase handler that receives it on ``dst``."""
        self.transport.send_control(src, dst, handler, payload,
                                    CONTROL_NBYTES)

    def _stale(self, payload) -> bool:
        rid = payload[0] if isinstance(payload, tuple) else payload
        return (not self.active) or rid != self.round_id

    # -- Phase 1 + 2: flood down, pause at local max, reduce max up -------------------
    def _on_start(self, src: int, nid: int, payload) -> None:
        if self._stale(payload):
            return
        agent = self._agents[nid]
        table = self.table
        ring = table.window(nid)
        if ring is not None:
            ring.close()  # the reads below need the exact task state
        for child in agent.children:
            self._send(nid, child, self._on_start, self.round_id)
        # Local bound: no local task can end up past this iteration (a task
        # mid-iteration may still complete the one it is computing).
        rows = table.rows(nid)
        bound = 0
        for row in rows:
            eff = table.progress.item(row) + (
                1 if table.state[row] is TaskState.COMPUTING else 0)
            bound = max(bound, eff)
        agent.local_bound = bound
        agent.subtree_max = bound
        for row in rows:
            table.request_pause_at(row, bound)
        self._maybe_send_max_up(nid)

    def _on_max(self, src: int, nid: int, payload) -> None:
        if self._stale(payload):
            return
        _, child_max = payload
        agent = self._agents[nid]
        agent.pending_max.discard(src)
        agent.subtree_max = max(agent.subtree_max, child_max)
        self._maybe_send_max_up(nid)

    def _maybe_send_max_up(self, nid: int) -> None:
        agent = self._agents[nid]
        if agent.pending_max:
            return
        if agent.parent is not None:
            self._send(nid, agent.parent, self._on_max,
                       (self.round_id, agent.subtree_max))
        else:
            # Root: Phase 3 — the checkpoint iteration is decided.
            self.decided_iteration = agent.subtree_max
            self._t_decided = self._sim.now
            self._send(nid, nid, self._on_decision,
                       (self.round_id, agent.subtree_max))

    # -- Phase 3: broadcast decision, run/pause to it ---------------------------------
    def _on_decision(self, src: int, nid: int, payload) -> None:
        if self._stale(payload):
            return
        _, decided = payload
        agent = self._agents[nid]
        agent.decided = decided
        self._t_last_decision = self._sim.now
        agent.pending_ready = set(agent.children)
        for child in agent.children:
            self._send(nid, child, self._on_decision, (self.round_id, decided))
        table = self.table
        for row in table.rows(nid):
            table.request_pause_at(row, decided)
            table.resume_if_below(row)
        if table.all_ready(nid):
            self._on_node_all_ready(nid)

    # -- Phase 4: readiness reduction ---------------------------------------------------
    def _on_node_all_ready(self, nid: int) -> None:
        if not self.active:
            return
        agent = self._agents.get(nid)
        if agent is None or agent.decided is None or agent.local_ready_sent:
            return
        agent.local_ready_sent = True
        self._t_last_ready = self._sim.now
        self._maybe_send_ready_up(nid)

    def _on_ready(self, src: int, nid: int, payload) -> None:
        if self._stale(payload):
            return
        agent = self._agents[nid]
        agent.pending_ready.discard(src)
        self._maybe_send_ready_up(nid)

    def _maybe_send_ready_up(self, nid: int) -> None:
        agent = self._agents[nid]
        if not agent.local_ready_sent or agent.pending_ready:
            return
        if agent.ready_sent_up:
            return
        agent.ready_sent_up = True
        if agent.parent is not None:
            self._send(nid, agent.parent, self._on_ready, (self.round_id,))
        else:
            self._complete_round()

    def _complete_round(self) -> None:
        """The root is ready: the round is over."""
        self.active = False
        self.rounds_completed += 1
        self.metrics.histogram("consensus.round_duration_s").observe(
            self._sim.now - self._t_start)
        self._emit_round_spans()
        if self.on_complete is not None:
            self.on_complete(self.round_id, self.decided_iteration)

    def _emit_round_spans(self) -> None:
        """Close the round span and emit its four sub-phase children.

        The boundaries come from the round's observed protocol milestones:
        the max reduction runs from round start to the root's decision, the
        decision broadcast until the last node handles it, the drain until
        the last node's tasks pause at the decided iteration, and the
        readiness reduction until the round completes.  Each boundary is
        clamped monotone so float ties cannot produce negative spans.
        """
        if self._round_span is None:
            return
        now = self._sim.now
        t0 = self._t_start
        t1 = max(t0, self._t_decided)
        t2 = max(t1, self._t_last_decision)
        t3 = max(t2, self._t_last_ready)
        parent = self._round_span
        rid = self.round_id
        self.tracer.emit("consensus.reduce_max", t0, t1, parent=parent, round=rid)
        self.tracer.emit("consensus.broadcast", t1, t2, parent=parent, round=rid)
        self.tracer.emit("consensus.drain", t2, t3, parent=parent, round=rid)
        self.tracer.emit("consensus.ready_reduce", t3, now, parent=parent,
                         round=rid)
        self.tracer.end(self._round_span, now,
                        decided_iteration=self.decided_iteration)
        self._round_span = None


_NO_INSTANTS = np.empty(0)


class RoundEngine:
    """A consensus round evaluated as one max-plus system on the tree.

    With parent ``(i-1)//2`` in scope order, ``d`` the control-message delay,
    ``L[i]`` node ``i``'s local bound (read off its replica's fast-forwarded
    ring at ``start[i]``) and ``C`` the ring's completion instants of the
    decided iteration ``M = max(L)``::

        start[0] = t0 + d                 start[i] = start[parent] + d
        maxsend[i] = max(start[i], maxsend[c] + d for each child c)
        dec[0]   = maxsend[0] + d         dec[i]   = dec[parent] + d
        ready[i] = max(dec[i], C[t, M] for each task t of node i)
        rsend[i] = max(ready[i], rsend[c] + d for each child c)

    and the round completes at ``rsend[0]``.  These are the instants the
    message path computes, with the same float additions.  The ring holds
    each node's tasks at ``L[i]`` from ``start[i]`` and releases them to
    ``M`` at ``dec[i]`` (:meth:`RingFastForward.hold`, ``release``), so the
    whole round -- tasks included -- is known when it starts.  The engine
    posts two events (the decision and the completion) instead of ``4n-2``
    deliveries and credits the transport with the messages as their
    instants pass.

    :meth:`eligible` is the single entry rule: every node in scope is alive
    and sits on an open, unheld ring, and the scope lists whole rings, each
    in its node order.
    Any write from outside before the completion (a death, an abort, the
    end of the job) calls :meth:`materialize`, which rebuilds the message
    path's exact state as of now and hands the rest of the round to it.
    Docs: docs/protocols.md §1.
    """

    def __init__(self, controller: ConsensusController):
        self.controller = controller
        #: Counters (``sim.fast_forward.rounds`` / ``round_fallbacks`` /
        #: ``round_ties``).
        self.rounds = 0
        self.fallbacks = 0
        self.ties = 0
        self.live = False
        self._rings: list = []
        self._handles: list = []
        self._sends = self._arrivals = _NO_INSTANTS
        self._sent = self._delivered = 0

    # -- entry -----------------------------------------------------------------------
    def alive(self, scope: list[int]) -> bool:
        """Whether every node in ``scope`` is alive."""
        return bool(self.controller.transport.liveness()[scope].all())

    def eligible(self, scope: list[int]) -> bool:
        """Whether the round over ``scope`` may be evaluated here."""
        table = self.controller.table
        if not self.alive(scope):
            return False
        # The engine takes scopes that list whole rings in node order (the
        # framework's replica scopes), so each ring's window is looked up
        # once and checked as one slice.
        at = 0
        while at < len(scope):
            ring = table.window(scope[at])
            if (ring is None or ring.parked or ring.round is not None
                    or ring.node_ids != scope[at:at + len(ring.node_ids)]):
                return False
            at += len(ring.node_ids)
        return True

    def start(self) -> None:
        """Evaluate the round just started by the controller."""
        c = self.controller
        sim = c._sim
        scope = c.scope
        n = len(scope)
        t0 = sim.now
        self._transport = transport = c.transport
        d = transport.small_delay(CONTROL_NBYTES)
        # Tree levels are contiguous runs of scope positions; every node of a
        # level receives each flood at the same instant.
        levels = []
        lo, width = 0, 1
        while lo < n:
            levels.append((lo, min(lo + width, n)))
            lo, width = levels[-1][1], 2 * width
        depth = np.empty(n, dtype=np.intp)
        for k, (lo, hi) in enumerate(levels):
            depth[lo:hi] = k
        start_at, t = [], t0
        for _ in levels:
            t = t + d
            start_at.append(t)
        # :meth:`eligible` checked that the scope lists whole rings in node
        # order: each ring is the slice of it that starts at ``first``.
        members = []
        first = 0
        while first < n:
            ring = c.table.window(scope[first])
            pos = first + ring.task_node_pos
            first += len(ring.node_ids)
            level = depth[pos]
            order = np.argsort(level, kind="stable")
            cuts = np.searchsorted(level[order], np.arange(len(levels) + 1))
            members.append((ring, pos, order, cuts))
        rings = [ring for ring, _, _, _ in members]
        # Phases 1-2: each level reads its tasks at its start instant, then
        # holds them at its local bounds (later levels see those holds).
        bound = np.zeros(n, dtype=np.int64)
        for k, at in enumerate(start_at):
            held = []
            for ring, pos, order, cuts in members:
                idx = order[cuts[k]:cuts[k + 1]]
                if not len(idx):
                    continue
                rows, computing, ties = ring.state_at(at, idx)
                self.ties += ties
                np.maximum.at(bound, pos[idx], ring.base + rows + computing)
                held.append((ring, idx, pos[idx]))
            for ring, idx, p in held:
                ring.hold(idx, at, bound[p] - ring.base)
        decided = int(bound.max())
        start = np.array(start_at)[depth]
        subtree = bound.copy()
        maxsend = start.copy()
        for lo, hi in reversed(levels[1:]):
            parents = (np.arange(lo, hi) - 1) // 2
            np.maximum.at(subtree, parents, subtree[lo:hi])
            np.maximum.at(maxsend, parents, maxsend[lo:hi] + d)
        # Phase 3: the decision floods down; tasks run on to it.
        decided_at = float(maxsend[0])
        dec_at, t = [], decided_at
        for _ in levels:
            t = t + d
            dec_at.append(t)
        dec = np.array(dec_at)[depth]
        # Phase 4: a node is ready once its tasks pause at the decision.
        ready = dec.copy()
        for ring, pos, _, _ in members:
            ring.release(slice(None), dec[pos], decided - ring.base)
            np.maximum.at(ready, pos, ring.completions(decided - ring.base))
        rsend = ready.copy()
        for lo, hi in reversed(levels[1:]):
            parents = (np.arange(lo, hi) - 1) // 2
            np.maximum.at(rsend, parents, rsend[lo:hi] + d)
        parents = (np.arange(1, n) - 1) // 2
        self._sends = np.sort(np.concatenate((
            [t0], start[parents], maxsend[1:], [decided_at], dec[parents],
            rsend[1:])))
        self._arrivals = np.sort(np.concatenate((
            start, maxsend[1:] + d, dec, rsend[1:] + d)))
        self._sent = self._delivered = 0
        self._t0, self._d, self._decided = t0, d, decided
        self._bound, self._subtree = bound, subtree
        self._start, self._maxsend, self._dec = start, maxsend, dec
        self._ready, self._rsend = ready, rsend
        self._rings = rings
        for ring in rings:
            ring.round = self
            ring.arm()
        self._handles = [sim.schedule_at(decided_at, self._on_decided),
                         sim.schedule_at(float(rsend[0]), self._on_done)]
        self.live = True
        self.rounds += 1
        self.flush()

    # -- milestones ------------------------------------------------------------------
    def _on_decided(self) -> None:
        """The root decides (what the message path does at ``maxsend[0]``)."""
        c = self.controller
        c.decided_iteration = self._decided
        c._t_decided = float(self._maxsend[0])

    def _on_done(self) -> None:
        """The root is ready: complete the round as the message path would."""
        c = self.controller
        self.flush()
        self._detach()
        c.decided_iteration = self._decided
        c._t_decided = float(self._maxsend[0])
        c._t_last_decision = float(self._dec.max())
        c._t_last_ready = float(self._ready.max())
        c._complete_round()

    def flush(self) -> None:
        """Credit the transport with the messages sent and delivered by now
        (a message at exactly now counts as sent or delivered)."""
        if not self._sends.size:
            return
        now = self.controller._sim.now
        sent = int(np.searchsorted(self._sends, now, side="right"))
        delivered = int(np.searchsorted(self._arrivals, now, side="right"))
        tr = self._transport
        if sent != self._sent:
            count = sent - self._sent
            self._sent = sent
            tr.messages_sent += count
            tr.sent_by_kind["control"] += count
            tr.bytes_by_kind["control"] += count * CONTROL_NBYTES
        if delivered != self._delivered:
            tr.messages_delivered += delivered - self._delivered
            self._delivered = delivered

    def _detach(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles = []
        for ring in self._rings:
            ring.round = None
        self._sends = self._arrivals = _NO_INSTANTS
        self.live = False

    # -- fallback --------------------------------------------------------------------
    def materialize(self, *, close_rings: bool = True) -> None:
        """Hand the live round to the message path: the agents, the
        controller's milestones, the in-flight control messages (re-posted
        at their instants), the transport counters and the rings (closed,
        their tasks paused as the round left them), all exact as of now.
        An abort keeps the rings open (``close_rings=False``) and releases
        them itself.

        Tie rule: a round event at exactly now counts as done before the
        write that forces the fallback; each one is counted in
        :attr:`ties`.
        """
        if not self.live:
            return
        c = self.controller
        sim = c._sim
        now = sim.now
        self.flush()
        sends, arrivals, rings = self._sends, self._arrivals, self._rings
        rid, t0, decided = c.round_id, self._t0, self._decided
        dec, ready = self._dec, self._ready
        self._detach()
        self.fallbacks += 1
        self.ties += (int(np.count_nonzero(sends == now))
                      - (1 if t0 == now else 0)
                      + int(np.count_nonzero(arrivals == now))
                      + int(np.count_nonzero(ready == now)))
        scope = c.scope
        n = len(scope)
        bound_l, subtree_l = self._bound.tolist(), self._subtree.tolist()
        start_l, dec_l = self._start.tolist(), dec.tolist()
        ready_l = ready.tolist()
        maxsend_l, rsend_l = self._maxsend.tolist(), self._rsend.tolist()
        max_arrival = (self._maxsend + self._d).tolist()
        ready_arrival = (self._rsend + self._d).tolist()
        agents = {}
        for i, nid in enumerate(scope):
            kids = [j for j in (2 * i + 1, 2 * i + 2) if j < n]
            agent = _AgentState(
                parent=scope[(i - 1) // 2] if i else None,
                children=[scope[j] for j in kids],
                pending_max={scope[j] for j in kids})
            if start_l[i] <= now:
                agent.local_bound = bound_l[i]
                agent.subtree_max = max([bound_l[i]] + [
                    subtree_l[j] for j in kids if max_arrival[j] <= now])
                agent.pending_max = {scope[j] for j in kids
                                     if max_arrival[j] > now}
            if dec_l[i] <= now:
                agent.decided = decided
                agent.pending_ready = {scope[j] for j in kids
                                       if ready_arrival[j] > now}
                agent.local_ready_sent = ready_l[i] <= now
                agent.ready_sent_up = rsend_l[i] <= now
            agents[nid] = agent
        c._agents = agents
        if maxsend_l[0] <= now:
            c.decided_iteration = decided
            c._t_decided = maxsend_l[0]
        past = dec[dec <= now]
        if past.size:
            c._t_last_decision = float(past.max())
        past = ready[ready <= now]
        if past.size:
            c._t_last_ready = float(past.max())
        # The control messages on the wire, in the order they were sent.
        root = scope[0]
        wire = []
        for i in range(n):
            up = scope[(i - 1) // 2] if i else root
            sent = t0 if i == 0 else start_l[(i - 1) // 2]
            if sent <= now < start_l[i]:
                wire.append((start_l[i], sent, 0, i, c._on_start, up,
                             scope[i], rid))
            sent = maxsend_l[0] if i == 0 else dec_l[(i - 1) // 2]
            if sent <= now < dec_l[i]:
                wire.append((dec_l[i], sent, 2, i, c._on_decision, up,
                             scope[i], (rid, decided)))
            if i == 0:
                continue
            if maxsend_l[i] <= now < max_arrival[i]:
                wire.append((max_arrival[i], maxsend_l[i], 1, i, c._on_max,
                             scope[i], up, (rid, subtree_l[i])))
            if rsend_l[i] <= now < ready_arrival[i]:
                wire.append((ready_arrival[i], rsend_l[i], 3, i, c._on_ready,
                             scope[i], up, (rid,)))
        wire.sort(key=lambda m: m[:4])
        deliver = self._transport._deliver_control
        for arrival, _, _, _, handler, src, dst, payload in wire:
            sim.post_at(arrival, deliver, handler, src, dst, payload)
        if rsend_l[0] <= now:
            # The root got ready at exactly now: let it complete the round
            # after the write, as the completion event would have.
            agents[root].ready_sent_up = False
            sim.post_at(now, self._root_ready, rid)
        if close_rings:
            for ring in rings:
                ring.close()

    def _root_ready(self, rid: int) -> None:
        c = self.controller
        if c.active and c.round_id == rid:
            c._maybe_send_ready_up(c.scope[0])

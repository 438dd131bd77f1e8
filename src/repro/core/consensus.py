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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.node import Node
from repro.runtime.task import TaskState
from repro.util.errors import SimulationError


def merge_progress_bounds(
    bounds: Iterable[tuple[int, int] | None],
) -> tuple[int, int] | None:
    """Associative merge of per-scope ``(min, max)`` progress bounds.

    This is the scalar decision rule shared by both consensus embodiments.
    The message-passing tree reduction below merges the *max* side on its
    way to the root (the decided checkpoint iteration, Phase 3).  The
    space-partitioned parallel mode (:mod:`repro.harness.parallel`) runs
    per-partition local sub-rounds instead, publishes each partition's
    bounds through its conservative-window barrier, and takes the *min*
    side as the globally safe recovery line for its time-cut coordinated
    checkpoints.  ``None`` entries (scopes with no live tasks) are skipped;
    the result is ``None`` when nothing contributed.
    """
    lo: int | None = None
    hi: int | None = None
    for pair in bounds:
        if pair is None:
            continue
        b_lo, b_hi = pair
        lo = b_lo if lo is None else min(lo, b_lo)
        hi = b_hi if hi is None else max(hi, b_hi)
    if lo is None or hi is None:
        return None
    return lo, hi


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
    """Drives consensus rounds over an arbitrary scope of nodes."""

    def __init__(self, nodes: dict[int, Node]):
        self.nodes = nodes
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
        self._sim = next(iter(nodes.values())).sim if nodes else None
        self._round_span = None
        self._t_start = 0.0
        self._t_decided = 0.0
        self._t_last_decision = 0.0
        self._t_last_ready = 0.0
        for node in nodes.values():
            node.on_all_tasks_ready = self._on_node_all_ready

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
        now = self._sim.now if self._sim is not None else 0.0
        self._t_start = self._t_decided = now
        self._t_last_decision = self._t_last_ready = now
        self._round_span = self.tracer.begin(
            "consensus.round", now, parent=span_parent,
            round=self.round_id, scope=len(scope))
        self.scope = list(scope)
        self.on_complete = on_complete
        self.decided_iteration = None
        self._agents = {}
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
        self.active = False
        self.rounds_aborted += 1
        now = self._sim.now if self._sim is not None else 0.0
        self.tracer.end(self._round_span, now, aborted=True)
        self._round_span = None
        for nid in self.scope:
            node = self.nodes[nid]
            if not node.alive:
                # A dead node's tasks must stay dead until its recovery
                # restores them; resuming them here would resurrect work on a
                # failed node behind the recovery machinery's back.
                continue
            if node.ring is not None:
                node.ring.close()
            for t in node.tasks:
                t.resume()
        self._agents = {}

    # -- message plumbing ----------------------------------------------------------
    def _send(self, src: int, dst: int,
              handler: Callable[[int, int, object], None], payload) -> None:
        """Ship one protocol message; ``handler(src, dst, payload)`` is the
        phase handler that receives it on ``dst``."""
        self.nodes[src].transport.send_control(src, dst, handler, payload)

    def _stale(self, payload) -> bool:
        rid = payload[0] if isinstance(payload, tuple) else payload
        return (not self.active) or rid != self.round_id

    # -- Phase 1 + 2: flood down, pause at local max, reduce max up -------------------
    def _on_start(self, src: int, nid: int, payload) -> None:
        if self._stale(payload):
            return
        agent = self._agents[nid]
        node = self.nodes[nid]
        if node.ring is not None:
            node.ring.close()  # the reads below need the exact task state
        for child in agent.children:
            self._send(nid, child, self._on_start, self.round_id)
        # Local bound: no local task can end up past this iteration (a task
        # mid-iteration may still complete the one it is computing).
        bound = 0
        for t in node.tasks:
            eff = t.progress + (1 if t.state is TaskState.COMPUTING else 0)
            bound = max(bound, eff)
        agent.local_bound = bound
        agent.subtree_max = bound
        for t in node.tasks:
            t.request_pause_at(bound)
        self._maybe_send_max_up(nid)

    def _on_max(self, src: int, nid: int, payload) -> None:
        if self._stale(payload):
            return
        _, child_max = payload
        agent = self._agents[nid]
        agent.pending_max.discard(src)
        merged = merge_progress_bounds(
            [(agent.subtree_max, agent.subtree_max), (child_max, child_max)])
        assert merged is not None
        agent.subtree_max = merged[1]
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
            if self._sim is not None:
                self._t_decided = self._sim.now
            self._send(nid, nid, self._on_decision,
                       (self.round_id, agent.subtree_max))

    # -- Phase 3: broadcast decision, run/pause to it ---------------------------------
    def _on_decision(self, src: int, nid: int, payload) -> None:
        if self._stale(payload):
            return
        _, decided = payload
        agent = self._agents[nid]
        node = self.nodes[nid]
        if node.ring is not None:
            node.ring.close()
        agent.decided = decided
        if self._sim is not None:
            self._t_last_decision = self._sim.now
        agent.pending_ready = set(agent.children)
        for child in agent.children:
            self._send(nid, child, self._on_decision, (self.round_id, decided))
        for t in node.tasks:
            t.request_pause_at(decided)
            t.resume_if_below()
        if node.all_tasks_ready():
            self._on_node_all_ready(node)

    # -- Phase 4: readiness reduction ---------------------------------------------------
    def _on_node_all_ready(self, node: Node) -> None:
        if not self.active:
            return
        agent = self._agents.get(node.node_id)
        if agent is None or agent.decided is None or agent.local_ready_sent:
            return
        agent.local_ready_sent = True
        if self._sim is not None:
            self._t_last_ready = self._sim.now
        self._maybe_send_ready_up(node.node_id)

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
            self.active = False
            self.rounds_completed += 1
            if self._sim is not None:
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
        if self._sim is None or self._round_span is None:
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

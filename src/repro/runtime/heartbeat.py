"""Buddy heartbeats and fail-stop detection (paper §6.1).

"When a hard fault is injected to a node, the process on that node stops
responding to any communication.  Thereafter, when the buddy node of this
node does not receive heartbeat for a certain period of time, the node is
diagnosed as dead."

Each node periodically sends a heartbeat to its buddy in the other replica
and checks the buddy's last-seen time; a silence longer than ``timeout``
triggers the death callback exactly once per failure epoch.

The monitor used to walk all N node objects per sweep (attribute chases,
N ``send_small`` calls, N posted delivery events).  It now keeps liveness,
last-seen timestamps, and failure incarnations in a
:class:`~repro.runtime.soa.NodeStateArrays` struct-of-arrays, so:

* the send sweep is one vectorized liveness scan plus a *single* posted
  delivery event that settles the whole sweep's probes at the common arrival
  instant (every probe shares the same size, hence bit-identical delay, and
  the per-message deliveries would have carried consecutive sequence numbers
  — nothing could ever observe a state between them);
* the check sweep is one vectorized silence scan; only when it finds a
  fresh, unreported candidate does it fall back to the exact legacy per-node
  walk (in registration order, re-reading live state between callbacks), so
  detection instants, detector attribution, and callback ordering are
  bit-identical to the per-object implementation.

Transport accounting flows through :meth:`Transport.account_sent`/
``account_delivered``/``account_dropped`` in bulk — the counter totals equal
the per-message path's count for count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.runtime.des import PeriodicHandle, Simulator
from repro.runtime.messages import Message, MsgKind, Transport
from repro.runtime.node import Node
from repro.runtime.soa import NodeStateArrays
from repro.util.errors import ConfigurationError

#: Heartbeat payload size in bytes (a liveness probe carries no data).
HEARTBEAT_NBYTES = 16


class HeartbeatMonitor:
    """Mutual buddy-pair liveness monitoring across the two replicas."""

    def __init__(
        self,
        nodes: list[Node],
        buddy_of: dict[int, int],
        *,
        interval: float = 1.0,
        timeout_factor: float = 4.0,
        on_death: Callable[[Node, Node], None],
    ):
        """
        Parameters
        ----------
        nodes:
            All nodes (both replicas).
        buddy_of:
            Map node_id -> buddy node_id (symmetric).
        interval:
            Heartbeat period in simulated seconds.
        timeout_factor:
            Silence threshold in heartbeat periods before declaring death.
        on_death:
            ``callback(detector, dead_node)`` fired once per failure.
        """
        if interval <= 0 or timeout_factor < 2:
            raise ConfigurationError("interval must be > 0 and timeout_factor >= 2")
        self.nodes = {n.node_id: n for n in nodes}
        self.buddy_of = dict(buddy_of)
        for a, b in self.buddy_of.items():
            if self.buddy_of.get(b) != a:
                raise ConfigurationError(f"buddy map not symmetric at {a}<->{b}")
        self.interval = interval
        self.timeout = timeout_factor * interval
        self.on_death = on_death
        self._reported: set[tuple[int, int]] = set()  # (node_id, failures_survived)
        self._started = False
        self._send_sweep_event: PeriodicHandle | None = None
        self._check_sweep_event: PeriodicHandle | None = None
        #: Struct-of-arrays node state, bound at start() (see soa.py).
        self._soa: NodeStateArrays | None = None
        self._buddy_slots: np.ndarray | None = None
        #: Per-slot highest failures_survived already reported dead — the
        #: vectorized mirror of the ``_reported`` dedup set (incarnations are
        #: monotone, so "key in reported" == "fs <= reported_upto").
        self._reported_upto: np.ndarray | None = None
        self._sim: Simulator | None = None
        self._transport: Transport | None = None

    @property
    def state_arrays(self) -> NodeStateArrays | None:
        """The bound node struct-of-arrays (None before :meth:`start`)."""
        return self._soa

    def start(self) -> None:
        first = next(iter(self.nodes.values()))
        sim = first.sim
        self._sim = sim
        self._transport = first.transport
        # Slots follow registration order — that is what keeps the sweep
        # walk order of the scalar fallback identical to the legacy loop.
        soa = NodeStateArrays(list(self.nodes))
        self._soa = soa
        for node in self.nodes.values():
            node.bind_state_arrays(soa, soa.slot_of[node.node_id])
            node.heartbeat_handler = self._on_heartbeat
        soa.last_seen[:] = sim.now
        self._buddy_slots = np.array(
            [soa.slot_of[self.buddy_of[nid]] for nid in self.nodes],
            dtype=np.int64)
        self._reported_upto = np.full(len(soa), -1, dtype=np.int64)
        # One monitor-wide sweep per event class instead of one tick per
        # node: 2 heap entries per interval, not 2·N.
        self._send_sweep_event = sim.schedule_periodic(
            self.interval, self._send_sweep)
        self._check_sweep_event = sim.schedule_periodic(
            self.interval, self._check_sweep, first_delay=self.timeout)
        self._started = True

    def stop(self) -> None:
        """Cancel both sweeps (lets a drained queue actually drain)."""
        if self._send_sweep_event is not None:
            self._send_sweep_event.cancel()
            self._send_sweep_event = None
        if self._check_sweep_event is not None:
            self._check_sweep_event.cancel()
            self._check_sweep_event = None

    # -- periodic sweeps ---------------------------------------------------------
    def _send_sweep(self) -> None:
        """Every live node heartbeats its buddy, in registration order.

        Dead nodes are simply skipped this sweep — the spare-node replacement
        revives the same logical node, which resumes heartbeating on the next
        sweep without any rescheduling.  The whole sweep is one vectorized
        liveness scan, one bulk accounting call, and one posted delivery
        event (all probes share one bit-identical delay).
        """
        soa = self._soa
        alive = soa.alive
        n_alive = int(np.count_nonzero(alive))
        if n_alive == 0:
            return
        transport = self._transport
        transport.account_sent(MsgKind.HEARTBEAT, n_alive,
                               n_alive * HEARTBEAT_NBYTES)
        senders = None if n_alive == len(alive) else np.flatnonzero(alive)
        self._sim.post(transport.small_delay(HEARTBEAT_NBYTES),
                       self._deliver_sweep, senders)

    def _deliver_sweep(self, senders: np.ndarray | None) -> None:
        """Arrival of one send sweep's probes: vectorized last-seen update.

        A probe from ``s`` to ``buddy(s)`` is delivered iff the buddy is
        alive *at arrival* (fail-stop receive filtering), and its only
        observable effect is ``last_seen[s] = now`` — order within the batch
        cannot matter, so settling all probes in one event is exact.
        """
        soa = self._soa
        alive = soa.alive
        buddies = self._buddy_slots
        if senders is None:
            n_sent = len(buddies)
            delivered_src = np.flatnonzero(alive[buddies])
        else:
            n_sent = len(senders)
            delivered_src = senders[alive[buddies[senders]]]
        n_delivered = len(delivered_src)
        transport = self._transport
        transport.account_delivered(n_delivered)
        if n_delivered != n_sent:
            transport.account_dropped(n_sent - n_delivered)
        soa.last_seen[delivered_src] = self._sim.now

    def _check_sweep(self) -> None:
        """Every live node inspects its buddy's silence, in registration order.

        Detection is purely silence-based: the detector has no ground truth
        about its buddy, only missing heartbeats.  The vectorized scan exits
        early when no *unreported* silence exists (the steady state); a
        candidate drops to the exact legacy walk, which re-reads live state
        between callbacks so side effects (revivals, cascades) influence
        later nodes in the same sweep exactly as before.
        """
        soa = self._soa
        now = self._sim.now
        buddies = self._buddy_slots
        silent = (now - soa.last_seen) >= self.timeout
        fresh = (soa.alive & silent[buddies]
                 & (soa.failures_survived[buddies] > self._reported_upto[buddies]))
        if not fresh.any():
            return
        timeout = self.timeout
        last_seen = soa.last_seen
        slot_of = soa.slot_of
        reported = self._reported
        reported_upto = self._reported_upto
        for node in self.nodes.values():
            if not node.alive:
                continue
            buddy_id = self.buddy_of[node.node_id]
            buddy_slot = slot_of[buddy_id]
            silent_for = node.sim.now - last_seen[buddy_slot]
            if silent_for >= timeout:
                buddy = self.nodes[buddy_id]
                key = (buddy_id, buddy.failures_survived)
                if key not in reported:
                    reported.add(key)
                    reported_upto[buddy_slot] = buddy.failures_survived
                    self.on_death(node, buddy)

    def _on_heartbeat(self, msg: Message) -> None:
        """Per-message path kept for externally injected HEARTBEAT traffic."""
        soa = self._soa
        soa.last_seen[soa.slot_of[msg.src]] = self.nodes[msg.src].sim.now

    def notify_revived(self, node_id: int) -> None:
        """Reset silence clocks when a spare replaces a dead node.

        Both directions need resetting: the buddy stopped hearing the dead
        node, and the dead node heard nothing while down — without the second
        reset the revived node would immediately (and wrongly) declare its
        perfectly healthy buddy dead.
        """
        now = self.nodes[node_id].sim.now
        soa = self._soa
        soa.last_seen[soa.slot_of[node_id]] = now
        soa.last_seen[soa.slot_of[self.buddy_of[node_id]]] = now

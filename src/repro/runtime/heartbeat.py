"""Buddy heartbeats and fail-stop detection (paper §6.1).

"When a hard fault is injected to a node, the process on that node stops
responding to any communication.  Thereafter, when the buddy node of this
node does not receive heartbeat for a certain period of time, the node is
diagnosed as dead."

Each node periodically sends a heartbeat to its buddy in the other replica
and checks the buddy's last-seen time; a silence longer than ``timeout``
triggers the death callback exactly once per failure epoch.

Liveness itself lives in the transport (a dead node is one the transport
stops delivering to and from); the monitor owns only what detection adds:
per-node last-seen times and one "death reported" flag per node, set when
the buddy reports the death and cleared by :meth:`~HeartbeatMonitor.
notify_revived`.  Both are numpy arrays indexed by node id, and the sweeps
read liveness through the transport's numpy view (:meth:`Transport.
liveness`), so:

* the send sweep is one vectorized liveness scan plus a *single* posted
  delivery event that settles the whole sweep's probes at the common arrival
  instant (every probe shares the same size, hence bit-identical delay, and
  the per-message deliveries would have carried consecutive sequence numbers
  — nothing could ever observe a state between them);
* the check sweep is one vectorized silence scan; only when it finds a
  fresh, unreported candidate does it fall back to the exact per-node walk
  (in the order the ids were given, re-reading live state between
  callbacks), so detection instants, detector attribution, and callback
  ordering are those of a per-object monitor.

Transport accounting flows through :meth:`Transport.account_sent`/
``account_delivered``/``account_dropped`` in bulk — the counter totals equal
the per-message path's count for count.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.runtime.des import PeriodicHandle
from repro.runtime.messages import MsgKind, Transport
from repro.util.errors import ConfigurationError

#: Heartbeat payload size in bytes (a liveness probe carries no data).
HEARTBEAT_NBYTES = 16


class HeartbeatMonitor:
    """Mutual buddy-pair liveness monitoring across the two replicas."""

    def __init__(
        self,
        transport: Transport,
        node_ids: Sequence[int],
        buddy_of: dict[int, int],
        *,
        interval: float = 1.0,
        timeout_factor: float = 4.0,
        on_death: Callable[[int, int], None],
    ):
        """
        Parameters
        ----------
        transport:
            The transport the nodes are registered with (liveness, sends).
        node_ids:
            All node ids (both replicas), in the order both sweeps walk.
        buddy_of:
            Map node_id -> buddy node_id (symmetric).
        interval:
            Heartbeat period in simulated seconds.
        timeout_factor:
            Silence threshold in heartbeat periods before declaring death.
        on_death:
            ``callback(detector_id, dead_id)`` fired once per failure.
        """
        if interval <= 0 or timeout_factor < 2:
            raise ConfigurationError("interval must be > 0 and timeout_factor >= 2")
        self.node_ids = node_ids
        self.buddy_of = dict(buddy_of)
        for a, b in self.buddy_of.items():
            if self.buddy_of.get(b) != a:
                raise ConfigurationError(f"buddy map not symmetric at {a}<->{b}")
        self.interval = interval
        self.timeout = timeout_factor * interval
        self.on_death = on_death
        self._transport = transport
        self._sim = transport.sim
        self._send_sweep_event: PeriodicHandle | None = None
        self._check_sweep_event: PeriodicHandle | None = None
        #: By node id, filled at start(): the last time a heartbeat from that
        #: node arrived, and whether its current death has been reported.
        self.last_seen: np.ndarray | None = None
        self._reported: np.ndarray | None = None
        #: The monitored ids in walk order and their buddies' ids.
        self._ids: np.ndarray | None = None
        self._buddy_ids: np.ndarray | None = None

    def start(self) -> None:
        sim = self._sim
        ids = self.node_ids
        self._ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
        self._buddy_ids = np.array([self.buddy_of[nid] for nid in ids],
                                   dtype=np.int64)
        size = int(self._ids.max()) + 1
        self.last_seen = np.full(size, sim.now, dtype=np.float64)
        self._reported = np.zeros(size, dtype=bool)
        # One monitor-wide sweep per event class instead of one tick per
        # node: 2 heap entries per interval, not 2·N.
        self._send_sweep_event = sim.schedule_periodic(
            self.interval, self._send_sweep)
        self._check_sweep_event = sim.schedule_periodic(
            self.interval, self._check_sweep, first_delay=self.timeout)

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
        """Every live node heartbeats its buddy, in walk order.

        Dead nodes are simply skipped this sweep — the spare-node replacement
        revives the same logical node, which resumes heartbeating on the next
        sweep without any rescheduling.  The whole sweep is one vectorized
        liveness scan, one bulk accounting call, and one posted delivery
        event (all probes share one bit-identical delay).
        """
        transport = self._transport
        ids = self._ids
        alive = transport.liveness()[ids]
        n_alive = int(np.count_nonzero(alive))
        if n_alive == 0:
            return
        transport.account_sent(MsgKind.HEARTBEAT, n_alive,
                               n_alive * HEARTBEAT_NBYTES)
        senders = None if n_alive == len(ids) else np.flatnonzero(alive)
        self._sim.post(transport.small_delay(HEARTBEAT_NBYTES),
                       self._deliver_sweep, senders)

    def _deliver_sweep(self, senders: np.ndarray | None) -> None:
        """Arrival of one send sweep's probes: vectorized last-seen update.

        A probe from ``s`` to ``buddy(s)`` is delivered iff the buddy is
        alive *at arrival* (fail-stop receive filtering), and its only
        observable effect is ``last_seen[s] = now`` — order within the batch
        cannot matter, so settling all probes in one event is exact.
        """
        transport = self._transport
        src, dst = self._ids, self._buddy_ids
        if senders is not None:
            src, dst = src[senders], dst[senders]
        delivered_src = src[transport.liveness()[dst]]
        n_sent = len(src)
        n_delivered = len(delivered_src)
        transport.account_delivered(n_delivered)
        if n_delivered != n_sent:
            transport.account_dropped(n_sent - n_delivered)
        self.last_seen[delivered_src] = self._sim.now

    def _check_sweep(self) -> None:
        """Every live node inspects its buddy's silence, in walk order.

        Detection is purely silence-based: the detector has no ground truth
        about its buddy, only missing heartbeats.  The vectorized scan exits
        early when no *unreported* silence exists (the steady state); a
        candidate drops to the exact per-node walk, which re-reads live state
        between callbacks so side effects (revivals, cascades) influence
        later nodes in the same sweep.
        """
        now = self._sim.now
        last_seen = self.last_seen
        reported = self._reported
        timeout = self.timeout
        buddies = self._buddy_ids
        fresh = (self._transport.liveness()[self._ids]
                 & ((now - last_seen[buddies]) >= timeout)
                 & ~reported[buddies])
        if not fresh.any():
            return
        buddy_of = self.buddy_of
        alive = self._transport.alive
        for nid in self.node_ids:
            if not alive[nid]:
                continue
            buddy_id = buddy_of[nid]
            if now - last_seen[buddy_id] >= timeout and not reported[buddy_id]:
                reported[buddy_id] = True
                self.on_death(nid, buddy_id)

    def notify_revived(self, node_id: int) -> None:
        """Reset silence clocks and re-arm detection when a spare replaces a
        dead node.

        Both directions need resetting: the buddy stopped hearing the dead
        node, and the dead node heard nothing while down — without the second
        reset the revived node would immediately (and wrongly) declare its
        perfectly healthy buddy dead.  Clearing the node's reported flag lets
        its next death be reported again.
        """
        now = self._sim.now
        self.last_seen[node_id] = now
        self.last_seen[self.buddy_of[node_id]] = now
        self._reported[node_id] = False

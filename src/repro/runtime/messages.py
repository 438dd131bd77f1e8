"""Message types and the simulated transport.

The transport models the fail-stop semantics of §6.1: a dead node neither
sends nor receives — messages addressed to it vanish without error, which is
exactly why failure detection needs heartbeats rather than connection errors.

Per-message costs are the second-hottest path after event dispatch itself, so
:class:`Message` carries ``__slots__`` (no per-message ``__dict__``), the
``MsgKind.value`` descriptor lookups are hoisted into a module-level table,
the per-kind accounting dicts auto-initialise (no ``.get`` per send), and
deliveries ride the simulator's fire-and-forget :meth:`~
repro.runtime.des.Simulator.post` path — nothing ever cancels an in-flight
message, so no :class:`~repro.runtime.des.EventHandle` is allocated for one.
:meth:`Transport.send_small` is the dedicated fast path for the two
small-message firehoses (heartbeats and task dependency stamps), and
:meth:`Transport.send_control` ships consensus messages with no envelope at
all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from repro.runtime.des import Simulator
from repro.util.errors import SimulationError


class MsgKind(str, Enum):
    """Classes of runtime traffic."""

    APP = "app"                # application dependency messages
    HEARTBEAT = "heartbeat"    # buddy liveness probes
    CONTROL = "control"        # ACR protocol traffic (reductions, broadcasts)


#: ``Enum.value`` is a ``DynamicClassAttribute`` — a descriptor *call* per
#: access.  The send paths run per message, so they resolve kinds through
#: this plain dict instead.
_KIND_VALUE: dict[MsgKind, str] = {k: k.value for k in MsgKind}


@dataclass(slots=True)
class Message:
    """One simulated message between nodes."""

    kind: MsgKind
    src: int          # global node id
    dst: int          # global node id
    payload: Any = None
    nbytes: int = 64
    tag: str = ""
    send_time: float = 0.0


class Transport:
    """Delivers messages between nodes with latency and fail-stop filtering.

    Latency here is the small per-message control-plane latency; *bulk*
    checkpoint transfer times come from the topology-aware cost model and are
    scheduled explicitly by the checkpoint machinery.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        latency: float = 5.0e-6,
        bandwidth: float = 167.0e6,
    ):
        if latency < 0 or bandwidth <= 0:
            raise SimulationError("latency must be >= 0 and bandwidth > 0")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self._handlers: dict[int, Callable[[Message], None]] = {}
        self._stamp_handlers: dict[int, Callable[[int, int, int, int], None]] = {}
        self._alive: dict[int, bool] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Per-link-class accounting (always on — two dict bumps per send)
        #: feeding the telemetry metrics registry: how many messages and how
        #: many payload bytes each traffic class shipped.  ``defaultdict`` so
        #: the hot path is one ``+=``, not a ``.get`` per send; only kinds
        #: actually sent appear when iterating.
        self.sent_by_kind: dict[str, int] = defaultdict(int)
        self.bytes_by_kind: dict[str, int] = defaultdict(int)
        #: latency + nbytes/bandwidth memoised per small-message size — the
        #: fast path sends the same two sizes millions of times.
        self._small_delay: dict[int, float] = {}
        #: Batched-delivery accounting: how many logical messages rode a
        #: batched delivery event (:meth:`send_stamps` fan-outs, monitor-wide
        #: heartbeat sweeps) and how many such events were posted.  The
        #: pre-batching engine processed one heap event per message, so
        #: ``events_processed + batched_messages - batch_events`` is the
        #: legacy-granularity event count — the unit scale benchmarks use to
        #: compare throughput across the batching change.
        self.batched_messages = 0
        self.batch_events = 0

    # -- registration -----------------------------------------------------------
    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        self._handlers[node_id] = handler
        self._alive[node_id] = True

    def register_stamps(
        self, node_id: int,
        handler: Callable[[int, int, int, int], None],
    ) -> None:
        """Install the flat dependency-stamp handler for a node.

        ``handler(to_task, from_task, stamp, epoch)`` receives exactly the
        payload a ``MsgKind.APP`` message would carry, without the
        :class:`Message` envelope — the delivery half of :meth:`send_stamps`.
        """
        self._stamp_handlers[node_id] = handler

    def set_alive(self, node_id: int, alive: bool) -> None:
        if node_id not in self._handlers:
            raise SimulationError(f"unknown node {node_id}")
        self._alive[node_id] = alive

    def is_alive(self, node_id: int) -> bool:
        return self._alive.get(node_id, False)

    # -- sending ------------------------------------------------------------------
    def send(self, msg: Message, *, extra_delay: float = 0.0) -> None:
        """Send a message; silently dropped if either endpoint is dead.

        The drop-on-dead-sender rule models the no-response scheme: "the
        process on that node stops responding to any communication".
        """
        if msg.dst not in self._handlers:
            raise SimulationError(f"message to unregistered node {msg.dst}")
        if not self._alive.get(msg.src, False):
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        kind = _KIND_VALUE[msg.kind]
        self.sent_by_kind[kind] += 1
        self.bytes_by_kind[kind] += msg.nbytes
        sim = self.sim
        msg.send_time = sim.now
        delay = self.latency + msg.nbytes / self.bandwidth + extra_delay
        sim.post(delay, self._deliver, msg)

    def send_small(
        self,
        kind: MsgKind,
        src: int,
        dst: int,
        payload: Any = None,
        *,
        nbytes: int = 64,
        tag: str = "",
    ) -> None:
        """Small-message fast path: ``send(Message(...))`` in one flat call.

        Observable semantics are identical to building a :class:`Message` and
        calling :meth:`send` with no ``extra_delay`` — same drop rules, same
        accounting, same delivery instant (the memoised delay is the same
        float the general path computes).  Heartbeats and task dependency
        stamps ship through here; anything with a payload measured in more
        than a few KiB should use :meth:`send` so ``extra_delay`` and bulk
        modelling stay available.
        """
        if dst not in self._handlers:
            raise SimulationError(f"message to unregistered node {dst}")
        if not self._alive.get(src, False):
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        kv = _KIND_VALUE[kind]
        self.sent_by_kind[kv] += 1
        self.bytes_by_kind[kv] += nbytes
        delay = self._small_delay.get(nbytes)
        if delay is None:
            # Same expression (and therefore bit-identical float) as send().
            delay = self.latency + nbytes / self.bandwidth + 0.0
            self._small_delay[nbytes] = delay
        sim = self.sim
        sim.post(delay, self._deliver,
                 Message(kind, src, dst, payload, nbytes, tag, sim.now))

    def send_control(
        self,
        src: int,
        dst: int,
        handler: Callable[[int, int, Any], None],
        payload: Any,
        nbytes: int = 64,
    ) -> None:
        """Protocol-message fast path: no :class:`Message` envelope.

        Observably identical to ``send(Message(MsgKind.CONTROL, src, dst,
        payload, nbytes))`` followed by the destination node dispatching it
        to ``handler`` — same drop rules at the sender and at the receiver,
        same accounting (sent / delivered / dropped, the ``"control"``
        tallies), same memoised delay float and one posted event per
        message — but delivery calls ``handler(src, dst, payload)``
        directly.  The consensus tree ships through here.
        """
        if dst not in self._handlers:
            raise SimulationError(f"message to unregistered node {dst}")
        if not self._alive.get(src, False):
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        self.sent_by_kind["control"] += 1
        self.bytes_by_kind["control"] += nbytes
        self.sim.post(self.small_delay(nbytes), self._deliver_control,
                      handler, src, dst, payload)

    def _deliver_control(self, handler: Callable[[int, int, Any], None],
                         src: int, dst: int, payload: Any) -> None:
        if not self._alive.get(dst, False):
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        handler(src, dst, payload)

    def send_stamps(
        self,
        src: int,
        targets: list[tuple[int, int]],
        from_task: int,
        stamp: int,
        epoch: int,
        *,
        nbytes: int,
    ) -> None:
        """Fan one task's dependency stamp out to its neighbors in one event.

        Observably identical to looping ``send_small(MsgKind.APP, src, dst,
        (to_task, from_task, stamp, epoch))`` over ``targets``: the per-call
        sends draw consecutive sequence numbers and share one memoised delay,
        so nothing can ever interleave between their deliveries — delivering
        them back-to-back inside a single posted event preserves the exact
        global order while paying one heap entry (and zero :class:`Message`
        allocations) for the whole fan-out.  Accounting (sent / delivered /
        dropped, per-kind tallies) matches the per-message path count for
        count.  Targets must be registered via :meth:`register_stamps`.
        """
        if not self._alive.get(src, False):
            self.messages_dropped += len(targets)
            return
        n = len(targets)
        self.messages_sent += n
        self.sent_by_kind["app"] += n
        self.bytes_by_kind["app"] += n * nbytes
        self.batched_messages += n
        self.batch_events += 1
        delay = self._small_delay.get(nbytes)
        if delay is None:
            delay = self.latency + nbytes / self.bandwidth + 0.0
            self._small_delay[nbytes] = delay
        self.sim.post(delay, self._deliver_stamps, targets, from_task,
                      stamp, epoch)

    def _deliver_stamps(
        self, targets: list[tuple[int, int]], from_task: int,
        stamp: int, epoch: int,
    ) -> None:
        alive = self._alive
        handlers = self._stamp_handlers
        for dst, to_task in targets:
            if not alive.get(dst, False):
                self.messages_dropped += 1
                continue
            self.messages_delivered += 1
            handlers[dst](to_task, from_task, stamp, epoch)

    # -- bulk accounting (monitor-wide sweeps) ------------------------------------
    # The heartbeat monitor batches a whole sweep's worth of probes into one
    # posted event; these keep the transport the single owner of the counters
    # while letting the sweep settle N messages with O(1) Python work.  The
    # sums are exactly what N individual send_small/_deliver calls would have
    # produced.
    def small_delay(self, nbytes: int) -> float:
        """The memoised small-message delay — bit-identical to send_small's."""
        delay = self._small_delay.get(nbytes)
        if delay is None:
            delay = self.latency + nbytes / self.bandwidth + 0.0
            self._small_delay[nbytes] = delay
        return delay

    def account_sent(self, kind: MsgKind, count: int, nbytes_total: int) -> None:
        # Each call corresponds to exactly one posted batched delivery event
        # settling ``count`` probes (see the heartbeat monitor's send sweep).
        self.messages_sent += count
        kv = _KIND_VALUE[kind]
        self.sent_by_kind[kv] += count
        self.bytes_by_kind[kv] += nbytes_total
        self.batched_messages += count
        self.batch_events += 1

    def account_delivered(self, count: int) -> None:
        self.messages_delivered += count

    def account_dropped(self, count: int) -> None:
        self.messages_dropped += count

    def _deliver(self, msg: Message) -> None:
        if not self._alive.get(msg.dst, False):
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        self._handlers[msg.dst](msg)

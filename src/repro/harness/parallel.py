"""Opt-in space-partitioned parallel DES mode (conservative lookahead).

The single-process :class:`~repro.core.framework.ACR` run is the reference
semantics: one event queue, one global protocol actor, bit-identical traces.
This module parallelizes the layer that dominates paper-scale runs — the
*distributed runtime* of nodes, ring tasks, dependency stamps, buddy
heartbeats, hard faults, and partition-local detect/restart recovery — by
splitting the rank range into contiguous partitions, each with its own
:class:`~repro.runtime.des.Simulator`, transport, and heartbeat monitor.

Why ranks: buddy pairs are rank-aligned across the two replicas, so a
partition that owns ranks ``[lo, hi)`` of *both* replicas keeps every
heartbeat, failure detection, and spare takeover local.  The only
cross-partition traffic is the dependency-stamp fan-out of *edge tasks* (the
ring wraps at partition boundaries), which makes a conservative
time-window scheme practical:

* every stamp crosses the boundary with the same transport delay ``δ``
  (latency + nbytes/bandwidth — the exact float the single-process path
  computes);
* at each window barrier every partition promises its **earliest output
  time**: the earliest instant any of its edge tasks could next announce a
  stamp (a computing task announces no earlier than its scheduled completion;
  an idle or paused task must first finish an iteration, ≥ ``min_iter``
  away; a dead task cannot announce before its revival, ≥ ``spare_boot``
  after a detection that has not happened yet);
* the next window runs every partition strictly *before* ``H = min
  promise + δ`` (events with time < H — implemented exactly with
  ``math.nextafter``), so every boundary stamp is exchanged and injected
  before any receiver could reach its delivery instant.

Two multiprocess data planes implement that window protocol:

* **shm** (default on fork platforms, ≥2 effective workers): one
  :class:`~repro.runtime.soa.ShmArena` laid out *before* forking holds every
  partition's progress/liveness struct-of-arrays plus fixed-dtype numpy
  record rings, one per ordered pair of rank-adjacent partitions.  Workers
  inherit the mapping, push boundary stamps into the rings zero-copy, and
  self-synchronize through a scalar-only ``mp.Barrier`` — two waits per
  window, no per-window pipe traffic, no pickling.  The controller only
  collects final results and reads completion straight out of shared memory.
* **pipes** (fallback: ``shared_memory=False``, or no ``fork`` start
  method): the original command loop, with ``inject`` payloads routed to the
  worker owning the destination partition instead of broadcast.

On top of either plane, ``coordinated_interval`` runs the coordinated
checkpoint-consensus protocol *partitioned*: at every round instant
``T_k = k·interval`` each partition computes its local ``(min, max)`` live
progress bounds vectorized, the bounds merge through the same
conservative-window barrier (:func:`repro.core.consensus.
merge_progress_bounds` — the identical decision rule the message-passing
tree reduction uses), and the global *min* becomes the per-task checkpoint
line that ``scheme="coordinated"`` restores from.  Round instants are
multiplications (``interval * k``), window horizons clamp to them, and the
capture cut is "events strictly before ``T_k``" — all decomposition-
invariant, so global coordinated checkpoints no longer force the
single-process path.

Determinism contract: all randomness flows from SHA-256-derived
:class:`~repro.util.rng.RngStream` draws keyed by ``(seed, name)`` and from
the per-``(seed, task, iteration)`` jitter hash — none of it depends on the
partition count or on which OS process runs a partition.  Event interleaving
*across* partitions is unconstrained, but partitions only interact through
timestamped stamps whose delivery instants are identical floats in every
decomposition, so the merged, canonically-sorted trace is byte-identical for
any ``partitions × workers × data-plane`` choice (asserted in
``tests/harness/test_parallel.py``).  See docs/performance.md "Scaling to
paper-size runs" for the shared-memory lifecycle and fallback rules.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.apps.base import _hash_unit
from repro.core.consensus import merge_progress_bounds
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.series import TimeSeriesRecorder, merge_series
from repro.runtime.des import Simulator
from repro.runtime.heartbeat import HeartbeatMonitor
from repro.runtime.messages import Transport
from repro.runtime.node import Node
from repro.runtime.soa import ShmArena, TaskProgressArray
from repro.runtime.task import DEP_STAMP_NBYTES, Task, TaskState
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

_INF = float("inf")

#: Sentinel for "no live tasks" in the shared consensus slots (int64-safe).
_NO_BOUND = 2 ** 62

#: Test hook: ``(worker_index, window_index)`` makes that worker hard-exit
#: right before running that window (fork inherits the patched value).
_TEST_CRASH: tuple[int, int] | None = None


class ParallelWorkerError(RuntimeError):
    """A parallel worker died or failed mid-run.

    Carries the partition indices the failed worker owned so callers can
    report *which* slice of the rank range was lost instead of hanging on
    a barrier or a pipe read.
    """

    def __init__(self, message: str, *, partitions: list[int] | None = None):
        super().__init__(message)
        self.partitions = partitions or []


# ---------------------------------------------------------------------------
# Scenario & report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelScenario:
    """A seeded forward-path workload the partitioned mode can simulate.

    ``scheme`` picks the recovery analogue of the paper's spectrum:
    ``"strong"`` restores a revived node's tasks to their last periodic
    partition-local snapshot stamp; ``"weak"`` restarts them from iteration
    0; ``"coordinated"`` restores to the last globally-decided coordinated
    checkpoint line (requires ``coordinated_interval``).

    ``coordinated_interval`` (any scheme) runs a partitioned
    checkpoint-consensus round at every ``T_k = k·interval``:
    per-partition vectorized ``(min, max)`` live-progress bounds merged to
    the global min.  ``coordinated_pause`` additionally stalls every live
    task at its progress for that long after each round — the modeled cost
    of quiescing and writing the coordinated checkpoint (in-flight
    iterations finish; only *new* iterations wait).
    """

    nodes_per_replica: int
    total_iterations: int
    tasks_per_node: int = 1
    iteration_seconds: float = 0.05
    heartbeat_interval: float = 1.0
    heartbeat_timeout_factor: float = 4.0
    scheme: str = "strong"
    snapshot_interval: float = 5.0
    n_faults: int = 0
    fault_window: tuple[float, float] = (0.2, 0.6)
    spare_boot_time: float = 2.0
    horizon: float = 1_000.0
    seed: int = 0
    coordinated_interval: float | None = None
    coordinated_pause: float = 0.0

    def __post_init__(self) -> None:
        if self.nodes_per_replica < 1 or self.tasks_per_node < 1:
            raise ConfigurationError("need >= 1 node and >= 1 task per node")
        if self.scheme not in ("strong", "weak", "coordinated"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.iteration_seconds <= 0 or self.snapshot_interval <= 0:
            raise ConfigurationError("iteration/snapshot times must be > 0")
        if self.scheme == "coordinated" and self.coordinated_interval is None:
            raise ConfigurationError(
                "scheme='coordinated' needs coordinated_interval")
        if self.coordinated_interval is not None \
                and self.coordinated_interval <= 0:
            raise ConfigurationError("coordinated_interval must be > 0")
        if self.coordinated_pause < 0:
            raise ConfigurationError("coordinated_pause must be >= 0")
        if self.coordinated_interval is not None \
                and self.coordinated_pause >= self.coordinated_interval:
            raise ConfigurationError(
                "coordinated_pause must be < coordinated_interval")

    @property
    def total_tasks(self) -> int:
        return self.nodes_per_replica * self.tasks_per_node


@dataclass
class ParallelRunReport:
    """Outcome + worker accounting for one partitioned run.

    Mirrors the campaign runner's ``effective_workers`` clamp: the requested
    worker count is recorded next to what actually ran (``min(requested,
    partitions, cpu_count)``) so reports and bench JSON can distinguish
    "asked for 8" from "got 1 on this box".
    """

    completed: bool
    sim_time: float
    events_processed: int
    windows: int
    cpu_count: int
    requested_workers: int
    effective_workers: int
    partitions: int
    #: Wall-clock of the whole run; populated exactly once by
    #: :func:`run_parallel` (constructors leave it 0.0).
    wall_s: float = 0.0
    #: Wall-clock of the window loop alone (construction and teardown
    #: excluded) — the number data-plane comparisons should use.
    loop_wall_s: float = 0.0
    #: Which data plane ran: ``inprocess``, ``inprocess-shm``, ``pipes``,
    #: or ``shm``.
    data_plane: str = "inprocess"
    #: Coordinated checkpoint-consensus rounds executed (0 when
    #: ``coordinated_interval`` is unset).
    consensus_rounds: int = 0
    per_partition_events: list[int] = field(default_factory=list)
    #: Total seconds each worker spent in barrier waits (shm plane only).
    barrier_wait_s: list[float] | None = None
    #: Per-window barrier overhead: max across workers of that window's
    #: summed waits (shm plane only).
    window_barrier_s: list[float] | None = None
    #: Per-worker peak RSS in MiB at worker exit (shm plane only).
    worker_peak_rss_mib: list[float] | None = None
    trace_digest: str | None = None
    trace: list[str] | None = None
    #: Merged decomposition-invariant metrics snapshot (``collect_metrics``);
    #: equal to the 1-partition run's snapshot for any decomposition.
    metrics: dict | None = None
    #: Per-partition snapshots in partition-index order (``collect_metrics``).
    partition_metrics: list[dict] | None = None
    #: Merged per-partition time series (``series_interval``); see
    #: :func:`repro.obs.series.merge_series`.
    series: dict | None = None


def effective_parallel_workers(requested: int | None, partitions: int) -> int:
    """The campaign clamp applied to partition workers."""
    return min(requested or 1, partitions, os.cpu_count() or 1)


def _fork_available() -> bool:
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


def _partition_bounds(n: int, partitions: int, index: int) -> tuple[int, int]:
    """Rank range ``[lo, hi)`` of partition ``index`` (ceil division)."""
    per = -(-n // partitions)
    lo = min(index * per, n)
    return lo, min(lo + per, n)


def fault_plan(scenario: ParallelScenario) -> list[tuple[float, int, int]]:
    """Seeded hard-fault schedule: ``(time, replica, rank)``, distinct ranks.

    Drawn from one named stream, so every partition (and every worker
    process) derives the identical plan and schedules only its own ranks.
    """
    if scenario.n_faults == 0:
        return []
    n = scenario.nodes_per_replica
    if scenario.n_faults > n:
        raise ConfigurationError("more faults than ranks")
    rng = RngStream(scenario.seed, "parallel/faults")
    est_end = scenario.horizon
    lo, hi = scenario.fault_window
    times = rng.uniform(lo * est_end, hi * est_end, size=scenario.n_faults)
    ranks = rng.choice(n, size=scenario.n_faults, replace=False)
    replicas = rng.integers(0, 2, size=scenario.n_faults)
    plan = [(float(t), int(rep), int(rk))
            for t, rep, rk in zip(times, replicas, ranks)]
    plan.sort()
    return plan


# ---------------------------------------------------------------------------
# Shared-memory data plane
# ---------------------------------------------------------------------------

#: One boundary stamp, fixed dtype (48 bytes): exactly the tuple the pipe
#: path pickles, as a record the receiver reads without deserializing.
_RING_DTYPE = np.dtype([
    ("t", np.float64), ("dst", np.int64), ("to_task", np.int64),
    ("from_task", np.int64), ("stamp", np.int64), ("epoch", np.int64)])


class _SharedPlane:
    """One :class:`ShmArena` holding every partition's hot state + rings.

    Layout is planned (fixed offsets) in the controller *before* forking;
    workers inherit the mapping and build numpy views at the same offsets,
    so no attach-by-name, no copies, and the resource tracker sees exactly
    one owner.  Contents:

    * ``eot``   — f8[P]: each partition's per-window earliest-output-time
      promise (scalar barrier payload).
    * ``cons``  — i8[P]: each partition's consensus sub-round min bound
      (``_NO_BOUND`` when it has no live tasks).
    * rings     — one ``_RING_DTYPE[slots]`` record ring plus an i8 count
      per *ordered pair of rank-adjacent partitions* (the task ring wraps,
      so only adjacent partitions ever exchange stamps).  Single writer
      (the source partition), single reader (the destination), with reads
      and writes separated by the window barrier — no locks needed.
    * per partition — the progress / alive / last_seen / failures arrays
      that :class:`TaskProgressArray` and the heartbeat monitor's
      :class:`~repro.runtime.soa.NodeStateArrays` normally allocate
      privately.

    Ring capacity defaults to 1024 stamps per direction per window and is
    tunable via ``REPRO_PARALLEL_RING_SLOTS``; overflow raises a clean
    :class:`ParallelWorkerError` instead of corrupting neighbours.
    """

    def __init__(self, scenario: ParallelScenario, partitions: int, *,
                 ring_slots: int | None = None):
        n = scenario.nodes_per_replica
        self.n = n
        self.partitions = partitions
        self.per = -(-n // partitions)
        if ring_slots is None:
            ring_slots = int(os.environ.get("REPRO_PARALLEL_RING_SLOTS",
                                            "1024"))
        if ring_slots < 1:
            raise ConfigurationError("ring_slots must be >= 1")
        self.slots = ring_slots

        bounds = [_partition_bounds(n, partitions, i)
                  for i in range(partitions)]
        pair_set: set[tuple[int, int]] = set()
        for i, (lo, hi) in enumerate(bounds):
            if lo >= hi:
                continue
            for rank in ((lo - 1) % n, hi % n):
                j = rank // self.per
                if j != i:
                    pair_set.add((i, j))
                    pair_set.add((j, i))
        pairs = sorted(pair_set)
        self.ring_index: dict[tuple[int, int], int] = {
            p: k for k, p in enumerate(pairs)}
        self._inbound: list[list[int]] = [
            [self.ring_index[(src, dst)] for (src, dst) in pairs
             if dst == d] for d in range(partitions)]
        n_rings = len(pairs)

        offset = 0

        def take(nbytes: int) -> int:
            nonlocal offset
            start = (offset + 7) & ~7
            offset = start + nbytes
            return start

        self._counts_off = take(max(n_rings, 1) * 8)
        self._rings_off = take(max(n_rings, 1) * ring_slots
                               * _RING_DTYPE.itemsize)
        self._eot_off = take(partitions * 8)
        self._cons_off = take(partitions * 8)
        tpn = scenario.tasks_per_node
        self._node_offs: list[tuple[int, int, int]] = []
        self._prog_offs: list[tuple[int, int]] = []
        for lo, hi in bounds:
            m = 2 * (hi - lo)
            t = m * tpn
            self._node_offs.append((take(m), take(m * 8), take(m * 8)))
            self._prog_offs.append((take(t * 8), t))
        self._n_rings = n_rings
        self.arena = ShmArena.create(offset)
        self.counts = self.arena.view(self._counts_off, max(n_rings, 1),
                                      np.int64)
        self.rings = self.arena.view(self._rings_off,
                                     (max(n_rings, 1), ring_slots),
                                     _RING_DTYPE)
        self.eot = self.arena.view(self._eot_off, partitions, np.float64)
        self.cons = self.arena.view(self._cons_off, partitions, np.int64)

    # -- per-partition state slabs ----------------------------------------------
    def partition_of(self, nid: int) -> int:
        return (nid % self.n) // self.per

    def progress_view(self, index: int) -> np.ndarray:
        off, count = self._prog_offs[index]
        return self.arena.view(off, count, np.int64)

    def node_buffers(self, index: int) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
        alive_off, seen_off, fail_off = self._node_offs[index]
        lo, hi = _partition_bounds(self.n, self.partitions, index)
        m = 2 * (hi - lo)
        return (self.arena.view(alive_off, m, np.bool_),
                self.arena.view(seen_off, m, np.float64),
                self.arena.view(fail_off, m, np.int64))

    def all_at_cap(self, cap: int) -> bool:
        """Completion read straight from shared memory (controller side)."""
        return all(bool((self.progress_view(i) >= cap).all())
                   for i in range(self.partitions))

    # -- ring exchange ------------------------------------------------------------
    def push(self, src: int, t: float, dst: int, to_task: int,
             from_task: int, stamp: int, epoch: int) -> None:
        ring = self.ring_index.get((src, self.partition_of(dst)))
        if ring is None:  # pragma: no cover - ring topology guarantees this
            raise ParallelWorkerError(
                f"stamp from partition {src} to non-adjacent node {dst}",
                partitions=[src])
        count = int(self.counts[ring])
        if count >= self.slots:
            raise ParallelWorkerError(
                f"ring {src}->{self.partition_of(dst)} overflow at "
                f"{self.slots} stamps/window; raise "
                f"REPRO_PARALLEL_RING_SLOTS", partitions=[src])
        rec = self.rings[ring, count]
        rec["t"] = t
        rec["dst"] = dst
        rec["to_task"] = to_task
        rec["from_task"] = from_task
        rec["stamp"] = stamp
        rec["epoch"] = epoch
        self.counts[ring] = count + 1

    def drain(self, dst: int) -> list[tuple]:
        """Pop every inbound stamp for partition ``dst`` (resets counts)."""
        out: list[tuple] = []
        for ring in self._inbound[dst]:
            count = int(self.counts[ring])
            if count:
                block = self.rings[ring, :count]
                out.extend(zip(block["t"].tolist(), block["dst"].tolist(),
                               block["to_task"].tolist(),
                               block["from_task"].tolist(),
                               block["stamp"].tolist(),
                               block["epoch"].tolist()))
                self.counts[ring] = 0
        return out

    # -- lifecycle ----------------------------------------------------------------
    def release(self) -> None:
        """Drop this process's views and detach the mapping."""
        self.counts = self.rings = self.eot = self.cons = None  # type: ignore
        self.arena.close()

    def destroy(self) -> None:
        """Controller teardown: detach and remove the segment."""
        self.release()
        self.arena.unlink()


class _RoundClock:
    """Deterministic coordinated-round instants ``T_k = interval * k``.

    Multiplication (not accumulation) keeps every ``T_k`` the identical
    float in every partition, worker, and decomposition — the window loop
    clamps horizons to ``next_time`` so each round instant is hit exactly.
    """

    __slots__ = ("interval", "index")

    def __init__(self, interval: float | None):
        self.interval = interval
        self.index = 1

    @property
    def next_time(self) -> float:
        if self.interval is None:
            return _INF
        return self.interval * self.index

    def advance(self) -> None:
        self.index += 1


# ---------------------------------------------------------------------------
# Partition internals
# ---------------------------------------------------------------------------

class _PartitionTransport(Transport):
    """Transport that diverts boundary stamp fan-outs into an outbox.

    Local targets ride the normal batched delivery event; foreign targets
    are recorded as ``(deliver_time, dst, to_task, from_task, stamp, epoch)``
    and injected into the owning partition at the next window barrier — with
    the same delay expression, so delivery instants are bit-identical to the
    single-partition run.  With a shared plane bound, foreign targets go
    straight into the destination partition's record ring (``ring_push``)
    instead of the pickled outbox.
    """

    def __init__(self, sim: Simulator, **kwargs):
        super().__init__(sim, **kwargs)
        self.outbox: list[tuple] = []
        self.ring_push: Callable[
            [float, int, int, int, int, int], None] | None = None
        self._local_nodes: frozenset[int] = frozenset()

    def seal(self) -> None:
        self._local_nodes = frozenset(self._handlers)

    def send_stamps(self, src, targets, from_task, stamp, epoch, *, nbytes):
        local_nodes = self._local_nodes
        for dst, _ in targets:
            if dst not in local_nodes:
                break
        else:
            super().send_stamps(src, targets, from_task, stamp, epoch,
                                nbytes=nbytes)
            return
        if not self._alive.get(src, False):
            self.messages_dropped += len(targets)
            return
        local = [t for t in targets if t[0] in local_nodes]
        foreign = [t for t in targets if t[0] not in local_nodes]
        n = len(targets)
        self.messages_sent += n
        self.sent_by_kind["app"] += n
        self.bytes_by_kind["app"] += n * nbytes
        self.batched_messages += n
        self.batch_events += 1
        delay = self.small_delay(nbytes)
        if local:
            self.sim.post(delay, self._deliver_stamps, local, from_task,
                          stamp, epoch)
        deliver_time = self.sim.now + delay
        ring_push = self.ring_push
        if ring_push is not None:
            for dst, to_task in foreign:
                ring_push(deliver_time, dst, to_task, from_task, stamp, epoch)
        else:
            for dst, to_task in foreign:
                self.outbox.append(
                    (deliver_time, dst, to_task, from_task, stamp, epoch))

    def inject(self, entries: list[tuple]) -> None:
        """Schedule inbound boundary stamps at their exact delivery times."""
        for t, dst, to_task, from_task, stamp, epoch in entries:
            self.sim.schedule_at(t, self._deliver_stamps, [(dst, to_task)],
                                 from_task, stamp, epoch)


class _TracedNode(Node):
    """Node with trace hooks and the harness's restart-resync reply.

    A task that rolls back resets its dependency view; if its neighbors are
    already paused at the iteration cap they would never announce again and
    the restored task would hang — the partition-local analogue of the §2.2
    resend problem.  The reply models the missing half: on receiving a stamp
    *behind* our own progress, re-announce one iteration-time later.  The
    fixed ``min_iter`` delay keeps the conservative promise sound (no
    partition can emit a boundary stamp earlier than ``T + min_iter``
    from an idle/paused state).
    """

    __trace__: list[tuple] | None = None  # set per-instance by the partition
    __resync__: float = 0.0  # min_iter, set per-instance by the partition

    def on_task_progress(self, task: Task) -> None:
        tr = self.__trace__
        if tr is not None:
            tr.append((self.sim.now, "iter", self.replica, self.rank,
                       task.task_id, task.progress))
        super().on_task_progress(task)

    def _on_stamp(self, to_task: int, from_task: int, stamp: int,
                  epoch: int) -> None:
        if not self.alive:
            return
        task = self._task_by_id.get(to_task)
        if task is None:
            return
        # The framework's rollbacks are global, so task epochs advance in
        # lockstep and the epoch filter cleanly flushes pre-rollback traffic.
        # Partition-local restarts desynchronize epochs (only the revived
        # node's tasks bump), which would make a restored task drop every
        # stamp from its never-rolled-back neighbors.  Stamps in this model
        # are idempotent max-progress facts — a neighbor's completed
        # iteration stays completed across its (deterministic) re-execution —
        # so clamping the carried epoch to the receiver's is sound.
        if epoch < task.epoch:
            epoch = task.epoch
        task.on_dep_message(from_task, stamp, epoch)
        # A stamp more than one iteration behind our progress cannot occur in
        # the dependency-gated steady state (neighbors trail by at most one)
        # — it is the signature of a rollback on the sender's side.
        if stamp < task.progress - 1 and task.state is not TaskState.DEAD:
            self.sim.schedule(self.__resync__, self._resync_reply,
                              task, task.epoch)

    def _resync_reply(self, task: Task, epoch: int) -> None:
        if self.alive and epoch == task.epoch \
                and task.state is not TaskState.DEAD:
            task._announce_progress()


class _Partition:
    """One rank range of both replicas with its own simulator + monitor."""

    def __init__(self, scenario: ParallelScenario, index: int,
                 partitions: int, *, trace: bool,
                 series_interval: float | None = None,
                 plane: _SharedPlane | None = None):
        self.scenario = scenario
        self.index = index
        n = scenario.nodes_per_replica
        self.lo, self.hi = _partition_bounds(n, partitions, index)
        self.sim = Simulator()
        self.transport = _PartitionTransport(self.sim)
        if plane is not None:
            self.transport.ring_push = partial(plane.push, index)
        self.trace: list[tuple] | None = [] if trace else None
        self.min_iter = scenario.iteration_seconds
        self.boot = scenario.spare_boot_time
        self.stamp_delay = self.transport.small_delay(DEP_STAMP_NBYTES)

        tpn = scenario.tasks_per_node
        total_tasks = scenario.total_tasks
        seed = scenario.seed
        base = scenario.iteration_seconds

        def iteration_time(task_id: int, iteration: int) -> float:
            # Same jitter model as ReplicaApp.iteration_time — keyed only by
            # (seed, task, iteration), hence partition-independent.
            return base * (1.0 + 0.05 * _hash_unit(seed, task_id, iteration))

        def node_id(replica: int, rank: int) -> int:
            return replica * n + rank

        self.nodes: dict[int, Node] = {}
        self.tasks: list[Task] = []
        self.edge_tasks: list[Task] = []
        local_ranks = range(self.lo, self.hi)
        for replica in (0, 1):
            for rank in local_ranks:
                nid = node_id(replica, rank)
                node = _TracedNode(nid, replica, rank, self.sim, self.transport)
                node.__trace__ = self.trace
                node.__resync__ = self.min_iter
                self.nodes[nid] = node
                for j in range(tpn):
                    tid = rank * tpn + j
                    left = (tid - 1) % total_tasks
                    right = (tid + 1) % total_tasks
                    neighbors = [(node_id(replica, left // tpn), left),
                                 (node_id(replica, right // tpn), right)]
                    task = Task(tid, node, neighbors=neighbors,
                                iteration_time=iteration_time)
                    task.iteration_cap = scenario.total_iterations
                    node.add_task(task)
                    self.tasks.append(task)
                    if any(not (self.lo <= nd % n < self.hi)
                           for nd, _ in neighbors):
                        self.edge_tasks.append(task)
        self.transport.seal()

        progress_buffer = (plane.progress_view(index)
                           if plane is not None else None)
        self._soa = TaskProgressArray(len(self.tasks),
                                      progress_buffer=progress_buffer)
        for i, task in enumerate(self.tasks):
            task.bind_progress(self._soa, i)
        self._soa.set_cap(scenario.total_iterations)

        buddy_of = {}
        for rank in local_ranks:
            a, b = node_id(0, rank), node_id(1, rank)
            buddy_of[a] = b
            buddy_of[b] = a
        self.monitor = HeartbeatMonitor(
            list(self.nodes.values()), buddy_of,
            interval=scenario.heartbeat_interval,
            timeout_factor=scenario.heartbeat_timeout_factor,
            on_death=self._on_death,
            state_buffers=(plane.node_buffers(index)
                           if plane is not None else None))
        self._revive_at: dict[int, float] = {}
        #: Last periodic local snapshot stamp per task (strong scheme).
        self._snapshot: dict[int, int] = {t.task_id: 0 for t in self.tasks}
        self._snap_event = None
        self._faults_pending = 0
        #: Recovery accounting (decomposition-invariant: each fault is owned
        #: by exactly one partition in every decomposition).
        self._kills = 0
        self._detections = 0
        self._revives = 0
        self._restores = 0
        #: Coordinated-round state: per-task decided checkpoint line (the
        #: global min each round; tasks on a dead node keep their previous
        #: line), plus an exact dead-node count so the all-alive fast path
        #: avoids per-round mask gathers at 64Ki+ tasks.
        self._dead_now = 0
        self._task_ckpts = 0
        self._ckpt: np.ndarray | None = None
        self._task_pos: dict[tuple[int, int], int] = {}
        self._task_node_slots: np.ndarray | None = None
        if scenario.coordinated_interval is not None:
            self._ckpt = np.zeros(len(self.tasks), dtype=np.int64)
            self._task_pos = {
                (t.node.node_id, t.task_id): i
                for i, t in enumerate(self.tasks)}
        #: Streaming telemetry: a partition-local series sampled on this
        #: partition's own clock.  Samples are passive counter reads — no
        #: state mutation, no sends — so the canonical trace is unchanged.
        self.series: TimeSeriesRecorder | None = None
        self._series_event = None
        if series_interval:
            self.series = TimeSeriesRecorder(interval=series_interval)
            self._series_event = self.sim.schedule_periodic(
                series_interval, self._sample_series)

        for t, rep, rank in fault_plan(scenario):
            if self.lo <= rank < self.hi:
                self.sim.schedule_at(t, self._kill, node_id(rep, rank))
                self._faults_pending += 1

        self.monitor.start()
        node_soa = self.monitor.state_arrays
        if scenario.coordinated_interval is not None and node_soa is not None:
            self._task_node_slots = np.array(
                [node_soa.slot_of[t.node.node_id] for t in self.tasks],
                dtype=np.int64)
        if scenario.scheme == "strong":
            self._snap_event = self.sim.schedule_periodic(
                scenario.snapshot_interval, self._take_snapshots)
        for node in self.nodes.values():
            node.start_tasks()

    # -- recovery ---------------------------------------------------------------
    def _record(self, kind: str, node: Node, value: int) -> None:
        if self.trace is not None:
            self.trace.append((self.sim.now, kind, node.replica, node.rank,
                               -1, value))

    def _kill(self, nid: int) -> None:
        self._faults_pending -= 1
        node = self.nodes[nid]
        if not node.alive:
            return
        self._record("kill", node, node.failures_survived)
        self._kills += 1
        self._dead_now += 1
        node.die()

    def _on_death(self, detector: Node, dead: Node) -> None:
        self._record("detect", dead, detector.replica * self.scenario.
                     nodes_per_replica + detector.rank)
        self._detections += 1
        revive_at = self.sim.now + self.boot
        self._revive_at[dead.node_id] = revive_at
        self.sim.schedule_at(revive_at, self._revive, dead.node_id)

    def _revive(self, nid: int) -> None:
        node = self.nodes[nid]
        self._revive_at.pop(nid, None)
        if node.alive:
            return
        node.revive()
        self.monitor.notify_revived(nid)
        self._record("revive", node, node.failures_survived)
        self._revives += 1
        self._dead_now -= 1
        scheme = self.scenario.scheme
        for task in node.tasks:
            if scheme == "strong":
                target = self._snapshot[task.task_id]
            elif scheme == "coordinated":
                assert self._ckpt is not None
                target = int(self._ckpt[self._task_pos[(nid, task.task_id)]])
            else:
                target = 0
            task.restore(target)
            self._restores += 1
            if self.trace is not None:
                self.trace.append((self.sim.now, "restore", node.replica,
                                   node.rank, task.task_id, target))

    def _take_snapshots(self) -> None:
        snap = self._snapshot
        for task in self.tasks:
            if task.state is not TaskState.DEAD:
                snap[task.task_id] = task.progress

    # -- coordinated checkpoint-consensus sub-rounds ------------------------------
    def consensus_local(self) -> tuple[int, int] | None:
        """This partition's ``(min, max)`` live progress bounds at the cut.

        The vectorized local half of a consensus round: every event strictly
        before the round instant has run, so the struct-of-arrays stamps
        *are* the local state — no tree messages needed inside a partition.
        Returns ``None`` when no task here is on a live node.
        """
        if not self.tasks:
            return None
        prog = self._soa.progress
        if self._dead_now == 0:
            return int(prog.min()), int(prog.max())
        assert self._task_node_slots is not None
        node_soa = self.monitor.state_arrays
        assert node_soa is not None
        alive = node_soa.alive[self._task_node_slots]
        live = prog[alive]
        if live.size == 0:
            return None
        return int(live.min()), int(live.max())

    def apply_consensus(self, decided: int | None, now: float) -> None:
        """Commit a round: record the decided line for every live task.

        ``decided`` is the global min — every live task has completed it, so
        "checkpoint at iteration ``decided``" is coherent without waiting.
        Tasks on dead nodes keep their previous line (their state at that
        older line is what a revival can actually restore).
        ``coordinated_pause`` then stalls new iterations for the modeled
        write-out time; in-flight iterations finish normally.
        """
        if decided is None or self._ckpt is None or not self.tasks:
            return
        if self._dead_now == 0:
            self._ckpt[:] = decided
            alive = None
            captured = len(self.tasks)
        else:
            assert self._task_node_slots is not None
            node_soa = self.monitor.state_arrays
            assert node_soa is not None
            alive = node_soa.alive[self._task_node_slots]
            np.copyto(self._ckpt, decided, where=alive)
            captured = int(np.count_nonzero(alive))
        self._task_ckpts += captured
        if self.trace is not None:
            if alive is None:
                for task in self.tasks:
                    self.trace.append((now, "ckpt", task.node.replica,
                                       task.node.rank, task.task_id, decided))
            else:
                for task, ok in zip(self.tasks, alive.tolist()):
                    if ok:
                        self.trace.append(
                            (now, "ckpt", task.node.replica, task.node.rank,
                             task.task_id, decided))
        pause = self.scenario.coordinated_pause
        if pause > 0.0 and captured:
            for task in self.tasks:
                task.request_pause_at(None)
            self.sim.schedule_at(now + pause, self._coord_resume)

    def _coord_resume(self) -> None:
        for task in self.tasks:
            task.resume()

    # -- observability -----------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Decomposition-invariant counters of this partition.

        Only quantities that sum across partitions to exactly the
        1-partition run's totals are exported: transport message/byte
        accounting (counted once, in the partition owning the sender or the
        delivery), task iteration totals, fault/recovery counts (each fault
        is owned by exactly one partition), and per-task coordinated
        checkpoint captures.  Simulator event counts are deliberately
        excluded — boundary stamps are injected as individual events but
        delivered batched locally, so they differ across decompositions.  A
        fresh registry per call keeps non-monotone values (task progress
        drops on weak restore) honest.
        """
        m = MetricsRegistry()
        t = self.transport
        m.counter("transport.messages_sent").set_total(t.messages_sent)
        m.counter("transport.messages_delivered").set_total(
            t.messages_delivered)
        m.counter("transport.messages_dropped").set_total(t.messages_dropped)
        for kind, n in t.sent_by_kind.items():
            m.counter("transport.messages_sent_by_kind", kind=kind).set_total(n)
        for kind, b in t.bytes_by_kind.items():
            m.counter("transport.bytes_sent", kind=kind).set_total(b)
        # batched_messages (per message) is invariant; batch_events (one per
        # batched send) is not — each partition's heartbeat monitor emits its
        # own batches — so only the former is exported.
        m.counter("transport.batched_messages").set_total(t.batched_messages)
        m.counter("tasks.iterations_completed").set_total(
            sum(task.progress for task in self.tasks))
        m.counter("tasks.restores").set_total(self._restores)
        m.counter("nodes.kills").set_total(self._kills)
        m.counter("nodes.detections").set_total(self._detections)
        m.counter("nodes.revives").set_total(self._revives)
        m.counter("consensus.task_checkpoints").set_total(self._task_ckpts)
        return m.snapshot()

    def _sample_series(self) -> None:
        self.series.sample(self.sim.now, self.metrics_snapshot())

    # -- window protocol ---------------------------------------------------------
    def earliest_output_time(self, now: float) -> float:
        """Conservative lower bound on the next cross-partition delivery."""
        if not self.edge_tasks:
            return _INF
        best = _INF
        boot_floor = now + self.boot
        for task in self.edge_tasks:
            state = task.state
            if state is TaskState.COMPUTING:
                cand = task.busy_until
                if self._faults_pending or self._revive_at:
                    cand = min(cand, boot_floor)
            elif state is TaskState.DEAD:
                cand = self._revive_at.get(task.node.node_id, boot_floor)
            else:  # IDLE / PAUSED: must finish an iteration (or be revived)
                cand = now + self.min_iter
                if self._faults_pending or self._revive_at:
                    cand = min(cand, boot_floor)
            if cand < best:
                best = cand
        return best + self.stamp_delay

    def run_window(self, horizon: float) -> list[tuple]:
        """Process every event strictly before ``horizon``; drain the outbox."""
        self.sim.run(until=math.nextafter(horizon, -_INF))
        out = self.transport.outbox
        self.transport.outbox = []
        return out

    @property
    def at_cap(self) -> bool:
        return self._soa.all_at_cap

    def owns(self, nid: int) -> bool:
        return nid in self.nodes

    def finish(self) -> None:
        self.monitor.stop()
        if self._snap_event is not None:
            self._snap_event.cancel()
        if self._series_event is not None:
            self._series_event.cancel()
            self._series_event = None
        if self.series is not None:
            # Final sample so every partition's series covers the horizon.
            self.series.sample(self.sim.now, self.metrics_snapshot())


# ---------------------------------------------------------------------------
# Coordinators
# ---------------------------------------------------------------------------

def _format_trace(records: list[tuple]) -> list[str]:
    """Canonical merged trace: one line per record, total-order sorted.

    ``repr(float)`` round-trips exactly, so identical event instants render
    to identical bytes regardless of which partition produced them.
    """
    records.sort()
    return [f"{t!r} {kind} r{rep} n{rank} t{task} v{val}"
            for t, kind, rep, rank, task, val in records]


def _window_horizon(eot_min: float, now: float, scenario: ParallelScenario,
                    clock: _RoundClock) -> float:
    """Next window end: promises, the run horizon, and the round clock.

    The round instant participates in the min, so every decomposition ends
    a window *exactly at* each ``T_k`` — that shared cut is what makes the
    partitioned consensus rounds decomposition-invariant.
    """
    horizon = min(eot_min, scenario.horizon, clock.next_time)
    if horizon <= now:  # defensive: never stall
        horizon = math.nextafter(now, _INF)
    return horizon


def _drive(partitions: list[_Partition], scenario: ParallelScenario,
           plane: _SharedPlane | None = None,
           ) -> tuple[int, int, float, bool, float]:
    """The conservative window loop over in-process partitions.

    Always runs the full ``scenario.horizon``: the end instant must not
    depend on window placement (which varies with the partition count), or
    late events — a fault landing after the last task hits its cap — would
    fire in one decomposition and not another.
    """
    windows = 0
    rounds = 0
    now = 0.0
    clock = _RoundClock(scenario.coordinated_interval)
    pending: list[tuple] = []
    if plane is None:
        for part in partitions:
            pending.extend(part.transport.outbox)
            part.transport.outbox = []
    t_loop = time.perf_counter()
    while now < scenario.horizon:
        if plane is not None:
            for part in partitions:
                entries = plane.drain(part.index)
                if entries:
                    part.transport.inject(entries)
        elif pending:
            for part in partitions:
                mine = [e for e in pending if part.owns(e[1])]
                if mine:
                    part.transport.inject(mine)
            pending = []
        horizon = _window_horizon(
            min(p.earliest_output_time(now) for p in partitions),
            now, scenario, clock)
        for part in partitions:
            pending.extend(part.run_window(horizon))
        now = horizon
        windows += 1
        if now == clock.next_time and now < scenario.horizon:
            merged = merge_progress_bounds(
                [p.consensus_local() for p in partitions])
            decided = merged[0] if merged is not None else None
            for part in partitions:
                part.apply_consensus(decided, now)
            rounds += 1
            clock.advance()
    loop_wall = time.perf_counter() - t_loop
    completed = all(p.at_cap for p in partitions)
    for part in partitions:
        part.finish()
    sim_time = max(p.sim.now for p in partitions)
    return windows, rounds, sim_time, completed, loop_wall


def _run_inprocess(scenario: ParallelScenario, n_partitions: int,
                   trace: bool, collect_metrics: bool = False,
                   series_interval: float | None = None,
                   plane: _SharedPlane | None = None,
                   ) -> tuple[ParallelRunReport, list[tuple]]:
    parts = [_Partition(scenario, i, n_partitions, trace=trace,
                        series_interval=series_interval, plane=plane)
             for i in range(n_partitions)]
    windows, rounds, sim_time, completed, loop_wall = _drive(
        parts, scenario, plane)
    records: list[tuple] = []
    if trace:
        for p in parts:
            records.extend(p.trace or [])
    report = ParallelRunReport(
        completed=completed, sim_time=sim_time,
        events_processed=sum(p.sim.events_processed for p in parts),
        windows=windows, cpu_count=os.cpu_count() or 1,
        requested_workers=1, effective_workers=1, partitions=n_partitions,
        per_partition_events=[p.sim.events_processed for p in parts])
    report.consensus_rounds = rounds
    report.loop_wall_s = loop_wall
    if collect_metrics:
        report.partition_metrics = [p.metrics_snapshot() for p in parts]
    if series_interval:
        report.series = merge_series(
            [p.series.to_dict() for p in parts if p.series is not None])
    return report, records


def _worker_payload(parts: list[_Partition], trace: bool,
                    collect_metrics: bool) -> dict:
    """Final per-worker results (both multiprocess planes)."""
    records: list[tuple] = []
    if trace:
        for p in parts:
            records.extend(p.trace or [])
    # Per-partition observability rides home on the final reply, tagged
    # with the partition index so the parent can restore global partition
    # order across worker groups.
    obs = [(p.index,
            p.metrics_snapshot() if collect_metrics else None,
            p.series.to_dict() if p.series is not None else None)
           for p in parts]
    return {
        "events": sum(p.sim.events_processed for p in parts),
        "per_part": [(p.index, p.sim.events_processed) for p in parts],
        "sim_time": max(p.sim.now for p in parts),
        "at_cap": all(p.at_cap for p in parts),
        "records": records,
        "obs": obs,
    }


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Pipes plane (fallback)
# ---------------------------------------------------------------------------

def _worker_main(conn, scenario: ParallelScenario, indices: list[int],
                 n_partitions: int, trace: bool,
                 collect_metrics: bool = False,
                 series_interval: float | None = None,
                 worker_index: int = 0) -> None:
    """Child process: own a group of partitions, obey pipe commands."""
    parts = [_Partition(scenario, i, n_partitions, trace=trace,
                        series_interval=series_interval)
             for i in indices]
    windows_run = 0
    try:
        while True:
            cmd, payload = conn.recv()
            if cmd == "outbox":
                out = []
                for p in parts:
                    out.extend(p.transport.outbox)
                    p.transport.outbox = []
                conn.send(out)
            elif cmd == "inject":
                for p in parts:
                    mine = [e for e in payload if p.owns(e[1])]
                    if mine:
                        p.transport.inject(mine)
                conn.send(True)
            elif cmd == "eot":
                conn.send(min((p.earliest_output_time(payload)
                               for p in parts), default=_INF))
            elif cmd == "run":
                if _TEST_CRASH == (worker_index, windows_run):
                    os._exit(17)
                windows_run += 1
                out = []
                for p in parts:
                    out.extend(p.run_window(payload))
                conn.send(out)
            elif cmd == "consensus":
                conn.send(merge_progress_bounds(
                    p.consensus_local() for p in parts))
            elif cmd == "apply":
                decided, now = payload
                for p in parts:
                    p.apply_consensus(decided, now)
                conn.send(True)
            elif cmd == "stop":
                for p in parts:
                    p.finish()
                conn.send(_worker_payload(parts, trace, collect_metrics))
                return
    finally:
        conn.close()


def _checked_recv(conn, proc, group: list[int]):
    """Receive a worker reply, surfacing worker death instead of hanging."""
    while not conn.poll(0.05):
        if not proc.is_alive():
            raise ParallelWorkerError(
                f"parallel worker owning partitions {group} died mid-window "
                f"(exit code {proc.exitcode})", partitions=group)
    try:
        return conn.recv()
    except EOFError:
        raise ParallelWorkerError(
            f"parallel worker owning partitions {group} closed its pipe "
            f"mid-window (exit code {proc.exitcode})",
            partitions=group) from None


def _terminate(procs) -> None:
    for proc in procs:
        if proc.is_alive():
            proc.terminate()


def _reap(procs, timeout: float = 5.0) -> None:
    for proc in procs:
        proc.join(timeout=timeout)
    for proc in procs:
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)


def _run_pipes(scenario: ParallelScenario, n_partitions: int,
               n_workers: int, trace: bool,
               collect_metrics: bool = False,
               series_interval: float | None = None,
               ) -> tuple[ParallelRunReport, list[tuple]]:
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    groups: list[list[int]] = [[] for _ in range(n_workers)]
    for i in range(n_partitions):
        groups[i % n_workers].append(i)
    owner_of = {i: w for w, g in enumerate(groups) for i in g}
    per = -(-scenario.nodes_per_replica // n_partitions)
    n = scenario.nodes_per_replica
    pipes, procs = [], []
    for w, g in enumerate(groups):
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(child, scenario, g, n_partitions, trace,
                                 collect_metrics, series_interval, w))
        proc.start()
        child.close()
        pipes.append(parent)
        procs.append(proc)

    def broadcast(cmd, payload=None):
        for c in pipes:
            c.send((cmd, payload))
        return [_checked_recv(c, p, g)
                for c, p, g in zip(pipes, procs, groups)]

    try:
        windows = 0
        rounds = 0
        now = 0.0
        clock = _RoundClock(scenario.coordinated_interval)
        pending: list[tuple] = []
        for out in broadcast("outbox"):
            pending.extend(out)
        t_loop = time.perf_counter()
        while now < scenario.horizon:
            if pending:
                # Route each boundary stamp to the worker owning its
                # destination partition — no more pickling the whole list
                # to every pipe.
                buckets: list[list[tuple]] = [[] for _ in range(n_workers)]
                for entry in pending:
                    buckets[owner_of[(entry[1] % n) // per]].append(entry)
                targets = [w for w in range(n_workers) if buckets[w]]
                for w in targets:
                    pipes[w].send(("inject", buckets[w]))
                for w in targets:
                    _checked_recv(pipes[w], procs[w], groups[w])
                pending = []
            horizon = _window_horizon(min(broadcast("eot", now)), now,
                                      scenario, clock)
            for out in broadcast("run", horizon):
                pending.extend(out)
            now = horizon
            windows += 1
            if now == clock.next_time and now < scenario.horizon:
                merged = merge_progress_bounds(broadcast("consensus"))
                decided = merged[0] if merged is not None else None
                broadcast("apply", (decided, now))
                rounds += 1
                clock.advance()
        loop_wall = time.perf_counter() - t_loop
        finals = broadcast("stop")
    except ParallelWorkerError:
        _terminate(procs)
        raise
    finally:
        _reap(procs)
    report, records = _assemble_multiprocess(
        finals, scenario, n_partitions, n_workers, windows, rounds,
        collect_metrics, series_interval)
    report.loop_wall_s = loop_wall
    return report, records


def _assemble_multiprocess(finals: list[dict], scenario: ParallelScenario,
                           n_partitions: int, n_workers: int, windows: int,
                           rounds: int, collect_metrics: bool,
                           series_interval: float | None,
                           completed: bool | None = None,
                           ) -> tuple[ParallelRunReport, list[tuple]]:
    per_part = sorted((pp for f in finals for pp in f["per_part"]))
    records = [r for f in finals for r in f["records"]]
    obs = sorted((o for f in finals for o in f["obs"]), key=lambda o: o[0])
    report = ParallelRunReport(
        completed=(all(f["at_cap"] for f in finals)
                   if completed is None else completed),
        sim_time=max(f["sim_time"] for f in finals),
        events_processed=sum(f["events"] for f in finals),
        windows=windows, cpu_count=os.cpu_count() or 1,
        requested_workers=n_workers, effective_workers=n_workers,
        partitions=n_partitions,
        per_partition_events=[e for _, e in per_part])
    report.consensus_rounds = rounds
    if collect_metrics:
        report.partition_metrics = [snap for _, snap, _ in obs]
    if series_interval:
        report.series = merge_series(
            [series for _, _, series in obs if series is not None])
    return report, records


# ---------------------------------------------------------------------------
# Shared-memory plane
# ---------------------------------------------------------------------------

def _worker_shm_main(conn, barrier, plane: _SharedPlane,
                     scenario: ParallelScenario, indices: list[int],
                     n_partitions: int, trace: bool, collect_metrics: bool,
                     series_interval: float | None,
                     worker_index: int) -> None:
    """Child process: run the window loop autonomously over shared memory.

    Unlike the pipe worker there is no command loop — every worker derives
    the identical horizon sequence from the shared scalar slots, so the
    only synchronization is the barrier (two waits per window, one more per
    consensus round) and the only pipe traffic is the single final payload.
    """
    import threading

    timeout = float(os.environ.get("REPRO_PARALLEL_BARRIER_TIMEOUT_S", "120"))
    try:
        parts = [_Partition(scenario, i, n_partitions, trace=trace,
                            series_interval=series_interval, plane=plane)
                 for i in indices]
        clock = _RoundClock(scenario.coordinated_interval)
        now = 0.0
        windows = 0
        rounds = 0
        window_waits: list[float] = []
        barrier_total = 0.0

        def wait() -> float:
            t0 = time.perf_counter()
            barrier.wait(timeout)
            return time.perf_counter() - t0

        # Construction fence: every partition's initial announcements are in
        # the rings before anyone drains.
        barrier.wait(timeout)
        t_loop = time.perf_counter()
        while now < scenario.horizon:
            spent = 0.0
            for p in parts:
                entries = plane.drain(p.index)
                if entries:
                    p.transport.inject(entries)
            for p in parts:
                plane.eot[p.index] = p.earliest_output_time(now)
            spent += wait()
            horizon = _window_horizon(float(plane.eot.min()), now,
                                      scenario, clock)
            if _TEST_CRASH == (worker_index, windows):
                os._exit(17)
            for p in parts:
                p.run_window(horizon)
            spent += wait()
            now = horizon
            windows += 1
            if now == clock.next_time and now < scenario.horizon:
                for p in parts:
                    bounds = p.consensus_local()
                    plane.cons[p.index] = (_NO_BOUND if bounds is None
                                           else bounds[0])
                spent += wait()
                decided_raw = int(plane.cons.min())
                decided = None if decided_raw >= _NO_BOUND else decided_raw
                for p in parts:
                    p.apply_consensus(decided, now)
                rounds += 1
                clock.advance()
            window_waits.append(spent)
            barrier_total += spent
        loop_wall = time.perf_counter() - t_loop
        for p in parts:
            p.finish()
        payload = _worker_payload(parts, trace, collect_metrics)
        payload.update(windows=windows, rounds=rounds,
                       barrier_wait_s=barrier_total,
                       window_waits=window_waits, loop_wall_s=loop_wall,
                       peak_rss_mib=_peak_rss_mib())
        conn.send(("done", payload))
    except threading.BrokenBarrierError:
        try:
            conn.send(("error",
                       f"worker {worker_index} (partitions {indices}): "
                       f"window barrier broken or timed out"))
        except OSError:  # pragma: no cover - parent already gone
            pass
    except Exception as exc:
        try:
            conn.send(("error",
                       f"worker {worker_index} (partitions {indices}) "
                       f"failed: {exc!r}"))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


def _run_shm(scenario: ParallelScenario, n_partitions: int, n_workers: int,
             trace: bool, collect_metrics: bool = False,
             series_interval: float | None = None,
             ) -> tuple[ParallelRunReport, list[tuple]]:
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    plane = _SharedPlane(scenario, n_partitions)
    barrier = ctx.Barrier(n_workers)
    # Contiguous partition groups: rank-adjacent partitions share a worker
    # where possible, which keeps most ring traffic within one process's
    # cache footprint.
    groups: list[list[int]] = []
    base, extra = divmod(n_partitions, n_workers)
    start = 0
    for w in range(n_workers):
        count = base + (1 if w < extra else 0)
        groups.append(list(range(start, start + count)))
        start += count
    pipes, procs = [], []
    try:
        for w, g in enumerate(groups):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_shm_main,
                args=(child, barrier, plane, scenario, g, n_partitions,
                      trace, collect_metrics, series_interval, w))
            proc.start()
            child.close()
            pipes.append(parent)
            procs.append(proc)

        results: dict[int, dict] = {}
        waiting = set(range(n_workers))
        while waiting:
            for w in sorted(waiting):
                conn, proc = pipes[w], procs[w]
                msg: tuple | None = None
                if conn.poll(0.02):
                    try:
                        msg = conn.recv()
                    except EOFError:
                        msg = ("error",
                               f"worker {w} (partitions {groups[w]}) closed "
                               f"its pipe (exit code {proc.exitcode})")
                elif not proc.is_alive():
                    # One more poll: the exit may have raced the last send.
                    if conn.poll(0.0):
                        try:
                            msg = conn.recv()
                        except EOFError:
                            msg = None
                    if msg is None:
                        msg = ("error",
                               f"worker {w} (partitions {groups[w]}) died "
                               f"(exit code {proc.exitcode})")
                if msg is None:
                    continue
                kind, payload = msg
                if kind == "done":
                    results[w] = payload
                    waiting.discard(w)
                else:
                    raise ParallelWorkerError(str(payload),
                                              partitions=groups[w])
        # Completion is read straight out of the shared arrays — the
        # controller never shipped any per-window state over a pipe.
        completed = plane.all_at_cap(scenario.total_iterations)
    except Exception:
        # Terminate only; the controller never touches the barrier.  A
        # worker can die (crash, or the SIGTERM sent here) while it holds
        # the barrier's lock, and every barrier call after that — abort()
        # included — blocks forever.  SIGTERM also ends workers blocked in
        # barrier.wait(), so there is nothing to abort.
        _terminate(procs)
        raise
    finally:
        _reap(procs)
        plane.destroy()
    finals = [results[w] for w in range(n_workers)]
    if len({f["windows"] for f in finals}) != 1:  # pragma: no cover
        raise ParallelWorkerError(
            f"workers disagree on window count: "
            f"{[f['windows'] for f in finals]}")
    report, records = _assemble_multiprocess(
        finals, scenario, n_partitions, n_workers, finals[0]["windows"],
        finals[0]["rounds"], collect_metrics, series_interval,
        completed=completed)
    report.loop_wall_s = max(f["loop_wall_s"] for f in finals)
    report.barrier_wait_s = [f["barrier_wait_s"] for f in finals]
    report.window_barrier_s = [
        max(vals) for vals in zip(*(f["window_waits"] for f in finals))]
    report.worker_peak_rss_mib = [f["peak_rss_mib"] for f in finals]
    return report, records


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_parallel(scenario: ParallelScenario, *, partitions: int = 1,
                 workers: int | None = 1, trace: bool = False,
                 force_processes: bool = False,
                 collect_metrics: bool = False,
                 series_interval: float | None = None,
                 shared_memory: bool | None = None) -> ParallelRunReport:
    """Run a :class:`ParallelScenario` over ``partitions`` rank ranges.

    ``workers`` is the *requested* process count; like the campaign runner it
    is clamped to ``min(workers, partitions, cpu_count)`` and both numbers
    are recorded in the report.  ``workers <= 1`` (after clamping) runs every
    partition in-process — same windows, same trace, no fork — which is what
    1-CPU runners exercise.  ``trace=True`` collects the canonical merged
    event trace (byte-identical across any partition/worker decomposition).

    ``shared_memory`` selects the multiprocess data plane: ``None`` (the
    default) uses the shared-memory plane whenever the ``fork`` start method
    exists and ≥2 workers run, ``True`` forces it, ``False`` forces the
    pickled-pipe plane.  In-process runs honor ``shared_memory=True`` too
    (arena + rings without a barrier) so the shm code path is testable on
    one CPU.  ``report.data_plane`` records the choice.

    ``collect_metrics=True`` ships each partition's decomposition-invariant
    counter snapshot home (``report.partition_metrics``, partition order)
    and merges them (``report.metrics``) — the merged snapshot equals the
    1-partition run's snapshot for any decomposition.  ``series_interval``
    additionally samples those counters on each partition's clock every
    ``series_interval`` simulated seconds; the merged series lands on
    ``report.series``.  Sampling adds timer events to each partition's queue
    (so ``events_processed`` grows by the tick count) but reads counters
    passively — the canonical trace and its digest are unchanged.
    """
    if partitions < 1:
        raise ConfigurationError("partitions must be >= 1")
    if partitions > scenario.nodes_per_replica:
        raise ConfigurationError("more partitions than ranks")
    requested = workers or 1
    eff = effective_parallel_workers(requested, partitions)
    if force_processes:
        # Test hook: exercise the fork machinery even where the CPU clamp
        # would fall back in-process (1-CPU CI runners).
        eff = min(requested, partitions)
    t0 = time.perf_counter()
    if eff <= 1:
        plane = (_SharedPlane(scenario, partitions) if shared_memory
                 else None)
        try:
            report, records = _run_inprocess(scenario, partitions, trace,
                                             collect_metrics, series_interval,
                                             plane=plane)
        finally:
            if plane is not None:
                plane.destroy()
        report.data_plane = "inprocess-shm" if shared_memory else "inprocess"
    else:
        use_shm = shared_memory if shared_memory is not None \
            else _fork_available()
        if use_shm and not _fork_available():
            # Spawn-only platforms (e.g. macOS default) cannot inherit the
            # arena mapping; fall back to the pipe plane.
            use_shm = False
        if use_shm:
            report, records = _run_shm(scenario, partitions, eff, trace,
                                       collect_metrics, series_interval)
            report.data_plane = "shm"
        else:
            report, records = _run_pipes(scenario, partitions, eff, trace,
                                         collect_metrics, series_interval)
            report.data_plane = "pipes"
    report.wall_s = time.perf_counter() - t0
    if collect_metrics and report.partition_metrics is not None:
        report.metrics = merge_snapshots(report.partition_metrics)
    report.requested_workers = requested
    report.effective_workers = eff
    if trace:
        lines = _format_trace(records)
        report.trace = lines
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        report.trace_digest = digest
    return report

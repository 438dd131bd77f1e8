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

One data plane and one window loop implement that protocol.  A
:class:`~repro.runtime.soa.ShmArena` laid out before any worker starts
holds every partition's progress/liveness struct-of-arrays, the
per-window promise and consensus slots, and fixed-dtype numpy record
rings, one per ordered pair of rank-adjacent partitions.  Edge tasks push
boundary stamps straight into the rings; the receiving partition drains
them at the next window.  :func:`_drive` is the only window loop.  With one
effective worker it drives every partition in-process with a no-op barrier
wait.  With two or more, each forked worker inherits the mapping and runs
:func:`_drive` over its own group of partitions, synchronizing through a
scalar-only ``mp.Barrier`` (two waits per window, no per-window pipe
traffic, no pickling); the controller only collects the final results.
Platforms without the ``fork`` start method run in-process.

On top of the window loop, ``coordinated_interval`` runs the coordinated
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
any ``partitions × workers`` choice (asserted in
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
from repro.harness.pool import effective_workers
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

#: Test hook: ``(worker_index, window_index)`` makes that forked worker
#: hard-exit right before running that window (fork inherits the patched
#: value; in-process runs have no worker index, so it never fires there).
_TEST_CRASH: tuple[int, int] | None = None


class ParallelWorkerError(RuntimeError):
    """A parallel worker died or failed mid-run.

    Carries the partition indices the failed worker owned so callers can
    report *which* slice of the rank range was lost instead of hanging on
    a barrier.
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

    ``scheme`` picks the recovery analogue: ``"strong"`` restores a revived
    node's tasks to their last periodic partition-local snapshot stamp;
    ``"coordinated"`` restores to the last globally-decided coordinated
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
        if self.scheme not in ("strong", "coordinated"):
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
    #: Where the window loop ran: ``inprocess`` (one effective worker) or
    #: ``shm`` (forked workers over the shared arena).
    data_plane: str = "inprocess"
    #: Coordinated checkpoint-consensus rounds executed (0 when
    #: ``coordinated_interval`` is unset).
    consensus_rounds: int = 0
    per_partition_events: list[int] = field(default_factory=list)
    #: Total seconds each worker spent in barrier waits (0.0 in-process,
    #: where the wait is a no-op).
    barrier_wait_s: list[float] | None = None
    #: Per-window barrier overhead: max across workers of that window's
    #: summed waits.
    window_barrier_s: list[float] | None = None
    #: Per-worker peak RSS in MiB at worker exit (the controller's own
    #: in-process).
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

#: One boundary stamp, fixed dtype (48 bytes): the
#: ``(deliver_time, dst, to_task, from_task, stamp, epoch)`` tuple as a
#: record the receiver reads without deserializing.
_RING_DTYPE = np.dtype([
    ("t", np.float64), ("dst", np.int64), ("to_task", np.int64),
    ("from_task", np.int64), ("stamp", np.int64), ("epoch", np.int64)])


class _SharedPlane:
    """One :class:`ShmArena` holding every partition's hot state + rings.

    Layout is planned (fixed offsets) in the controller *before* forking;
    workers inherit the mapping and build numpy views at the same offsets,
    so no attach-by-name, no copies, and the resource tracker sees exactly
    one owner.  In-process runs use the same arena.  Contents:

    * ``eot``   — f8[P]: each partition's per-window earliest-output-time
      promise (scalar barrier payload).
    * ``cons``  — i8[P, 2]: each partition's consensus sub-round
      ``(min, max)`` bounds (``_NO_BOUND`` when it has no live tasks).
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
        self._cons_off = take(partitions * 16)
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
        self.cons = self.arena.view(self._cons_off, (partitions, 2),
                                    np.int64)

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

    # -- consensus slots ----------------------------------------------------------
    def publish_bounds(self, index: int,
                       bounds: tuple[int, int] | None) -> None:
        self.cons[index] = (_NO_BOUND, _NO_BOUND) if bounds is None \
            else bounds

    def decided_line(self) -> int | None:
        """Global min of the published bounds (``None``: no live task)."""
        merged = merge_progress_bounds(
            None if lo == _NO_BOUND else (lo, hi)
            for lo, hi in self.cons.tolist())
        return merged[0] if merged is not None else None

    # -- lifecycle ----------------------------------------------------------------
    def destroy(self) -> None:
        """Controller teardown: drop the views, detach, remove the segment."""
        self.counts = self.rings = self.eot = self.cons = None  # type: ignore
        self.arena.close()
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
    """Transport that pushes boundary stamp fan-outs into the record rings.

    Local targets ride the normal batched delivery event; foreign targets
    go into the destination partition's record ring (``ring_push``) as
    ``(deliver_time, dst, to_task, from_task, stamp, epoch)`` and are
    injected there at the next window barrier — with the same delay
    expression, so delivery instants are bit-identical to the
    single-partition run.
    """

    def __init__(self, sim: Simulator,
                 ring_push: Callable[[float, int, int, int, int, int], None],
                 **kwargs):
        super().__init__(sim, **kwargs)
        self.ring_push = ring_push
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
        for dst, to_task in foreign:
            ring_push(deliver_time, dst, to_task, from_task, stamp, epoch)

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
                 plane: _SharedPlane, *, trace: bool,
                 series_interval: float | None = None):
        self.scenario = scenario
        self.index = index
        n = scenario.nodes_per_replica
        self.lo, self.hi = _partition_bounds(n, plane.partitions, index)
        self.sim = Simulator()
        self.transport = _PartitionTransport(self.sim,
                                             partial(plane.push, index))
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

        self._soa = TaskProgressArray(
            len(self.tasks), progress_buffer=plane.progress_view(index))
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
            state_buffers=plane.node_buffers(index))
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
        strong = self.scenario.scheme == "strong"
        for task in node.tasks:
            if strong:
                target = self._snapshot[task.task_id]
            else:
                assert self._ckpt is not None
                target = int(self._ckpt[self._task_pos[(nid, task.task_id)]])
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
        drops on restore) honest.
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

    def run_window(self, horizon: float) -> None:
        """Process every event strictly before ``horizon``."""
        self.sim.run(until=math.nextafter(horizon, -_INF))

    @property
    def at_cap(self) -> bool:
        return self._soa.all_at_cap

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


def _no_wait() -> float:
    """The in-process barrier: one process already holds every partition."""
    return 0.0


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drive(plane: _SharedPlane, scenario: ParallelScenario,
           indices: list[int], *, trace: bool, collect_metrics: bool,
           series_interval: float | None,
           wait: Callable[[], float] = _no_wait,
           worker_index: int | None = None) -> dict:
    """The conservative window loop over the partitions ``indices``.

    No other function steps windows.  In-process it runs once over every
    partition with the no-op ``wait``; each forked worker runs it over its
    own group with a real barrier wait that returns the seconds spent.
    Every caller derives the identical horizon sequence from the shared
    promise slots, so ``wait`` is the only synchronization: two calls per
    window, one more per consensus round.

    Always runs the full ``scenario.horizon``: the end instant must not
    depend on window placement (which varies with the partition count), or
    late events — a fault landing after the last task hits its cap — would
    fire in one decomposition and not another.

    Returns the group's final results for :func:`_assemble`.
    """
    parts = [_Partition(scenario, i, plane, trace=trace,
                        series_interval=series_interval) for i in indices]
    clock = _RoundClock(scenario.coordinated_interval)
    now = 0.0
    windows = 0
    rounds = 0
    window_waits: list[float] = []
    # Construction fence: every partition's initial announcements are in
    # the rings before anyone drains.
    wait()
    t_loop = time.perf_counter()
    while now < scenario.horizon:
        for p in parts:
            entries = plane.drain(p.index)
            if entries:
                p.transport.inject(entries)
        for p in parts:
            plane.eot[p.index] = p.earliest_output_time(now)
        spent = wait()
        horizon = _window_horizon(float(plane.eot.min()), now, scenario,
                                  clock)
        if _TEST_CRASH == (worker_index, windows):
            os._exit(17)
        for p in parts:
            p.run_window(horizon)
        spent += wait()
        now = horizon
        windows += 1
        if now == clock.next_time and now < scenario.horizon:
            for p in parts:
                plane.publish_bounds(p.index, p.consensus_local())
            spent += wait()
            decided = plane.decided_line()
            for p in parts:
                p.apply_consensus(decided, now)
            rounds += 1
            clock.advance()
        window_waits.append(spent)
    loop_wall = time.perf_counter() - t_loop
    for p in parts:
        p.finish()
    # Per-partition observability is tagged with the partition index so
    # the controller can restore global partition order across groups.
    return {
        "windows": windows,
        "rounds": rounds,
        "parts": [(p.index, p.sim.events_processed,
                   p.metrics_snapshot() if collect_metrics else None,
                   p.series.to_dict() if p.series is not None else None)
                  for p in parts],
        "sim_time": max(p.sim.now for p in parts),
        "at_cap": all(p.at_cap for p in parts),
        "records": [r for p in parts for r in (p.trace or ())],
        "loop_wall_s": loop_wall,
        "window_waits": window_waits,
        "peak_rss_mib": _peak_rss_mib(),
    }


def _assemble(finals: list[dict], n_partitions: int, requested: int,
              collect_metrics: bool, series_interval: float | None,
              ) -> tuple[ParallelRunReport, list[tuple]]:
    """One report from the per-worker results of :func:`_drive`."""
    if len({f["windows"] for f in finals}) != 1:  # pragma: no cover
        raise ParallelWorkerError(
            f"workers disagree on window count: "
            f"{[f['windows'] for f in finals]}")
    parts = sorted((pp for f in finals for pp in f["parts"]),
                   key=lambda pp: pp[0])
    per_part = [events for _, events, _, _ in parts]
    report = ParallelRunReport(
        completed=all(f["at_cap"] for f in finals),
        sim_time=max(f["sim_time"] for f in finals),
        events_processed=sum(per_part),
        windows=finals[0]["windows"], cpu_count=os.cpu_count() or 1,
        requested_workers=requested, effective_workers=len(finals),
        partitions=n_partitions,
        loop_wall_s=max(f["loop_wall_s"] for f in finals),
        consensus_rounds=finals[0]["rounds"],
        per_partition_events=per_part,
        barrier_wait_s=[sum(f["window_waits"]) for f in finals],
        window_barrier_s=[max(waits) for waits in
                          zip(*(f["window_waits"] for f in finals))],
        worker_peak_rss_mib=[f["peak_rss_mib"] for f in finals])
    if collect_metrics:
        report.partition_metrics = [snap for _, _, snap, _ in parts]
        report.metrics = merge_snapshots(report.partition_metrics)
    if series_interval:
        report.series = merge_series(
            [series for _, _, _, series in parts if series is not None])
    return report, [r for f in finals for r in f["records"]]


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------

def _worker(conn, barrier, plane: _SharedPlane, scenario: ParallelScenario,
            indices: list[int], trace: bool, collect_metrics: bool,
            series_interval: float | None, worker_index: int) -> None:
    """Child process: run :func:`_drive` over its group behind the barrier.

    The only pipe traffic is the single final message.
    """
    import threading

    timeout = float(os.environ.get("REPRO_PARALLEL_BARRIER_TIMEOUT_S", "120"))

    def wait() -> float:
        t0 = time.perf_counter()
        barrier.wait(timeout)
        return time.perf_counter() - t0

    try:
        conn.send(("done", _drive(
            plane, scenario, indices, trace=trace,
            collect_metrics=collect_metrics, series_interval=series_interval,
            wait=wait, worker_index=worker_index)))
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


def _run_forked(plane: _SharedPlane, scenario: ParallelScenario,
                n_workers: int, *, trace: bool, collect_metrics: bool,
                series_interval: float | None) -> list[dict]:
    """Fork ``n_workers`` workers over the arena; their results in order."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    barrier = ctx.Barrier(n_workers)
    # Contiguous partition groups: rank-adjacent partitions share a worker
    # where possible, which keeps most ring traffic within one process's
    # cache footprint.
    groups: list[list[int]] = []
    base, extra = divmod(plane.partitions, n_workers)
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
                target=_worker,
                args=(child, barrier, plane, scenario, g, trace,
                      collect_metrics, series_interval, w))
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
    return [results[w] for w in range(n_workers)]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_parallel(scenario: ParallelScenario, *, partitions: int = 1,
                 workers: int | None = 1, trace: bool = False,
                 force_processes: bool = False,
                 collect_metrics: bool = False,
                 series_interval: float | None = None) -> ParallelRunReport:
    """Run a :class:`ParallelScenario` over ``partitions`` rank ranges.

    ``workers`` is the *requested* process count; like the campaign runner it
    is clamped to ``min(workers, partitions, cpu_count)`` and both numbers
    are recorded in the report.  Every run lays out one shared arena with
    the partitions' state and boundary-stamp rings, then runs the single
    window loop (:func:`_drive`).  With one effective worker that loop
    drives every partition in-process — same windows, same trace, no fork
    — which is what 1-CPU runners exercise; with more, forked workers run
    it over contiguous partition groups behind a shared barrier.  Without
    the ``fork`` start method the run is always in-process.
    ``report.data_plane`` reads ``"inprocess"`` or ``"shm"`` accordingly.
    ``trace=True`` collects the canonical merged event trace
    (byte-identical across any partition/worker decomposition).

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
    eff = effective_workers(requested, partitions)
    if force_processes:
        # Test hook: exercise the fork machinery even where the CPU clamp
        # would fall back in-process (1-CPU CI runners).
        eff = min(requested, partitions)
    if not _fork_available():
        # Workers inherit the arena mapping across fork; without it every
        # partition runs in-process.
        eff = 1
    t0 = time.perf_counter()
    plane = _SharedPlane(scenario, partitions)
    try:
        if eff > 1:
            finals = _run_forked(plane, scenario, eff, trace=trace,
                                 collect_metrics=collect_metrics,
                                 series_interval=series_interval)
        else:
            finals = [_drive(plane, scenario, list(range(partitions)),
                             trace=trace, collect_metrics=collect_metrics,
                             series_interval=series_interval)]
    finally:
        plane.destroy()
    wall = time.perf_counter() - t0
    report, records = _assemble(finals, partitions, requested,
                                collect_metrics, series_interval)
    report.wall_s = wall
    report.data_plane = "shm" if eff > 1 else "inprocess"
    if trace:
        lines = _format_trace(records)
        report.trace = lines
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        report.trace_digest = digest
    return report

"""Double-buffered in-memory checkpoint store (paper §2.1).

Each node keeps its **local checkpoint** in memory; the same bytes act as the
**remote checkpoint** of its buddy in the other replica.  The store keeps two
generations per replica:

* the **safe** generation — the newest checkpoint that survived SDC
  comparison (or was installed by a recovery), the rollback target;
* a **candidate** generation — freshly packed, not yet validated.

A successful comparison *commits* the candidate (it becomes safe); a detected
mismatch *discards* it and the run rolls back to the safe generation.  The
initial application state is stored as generation zero so "restart from the
beginning of execution" (§2.3, weak-scheme worst case) is just another
rollback.
"""

from __future__ import annotations

from repro.pup.puper import PackedShards, PackedState
from repro.util.errors import SimulationError


class CheckpointGeneration(PackedShards):
    """One coordinated checkpoint of one replica: every rank's packed shard.

    The unit of checkpoint work: :meth:`~repro.pup.puper.PackedShards.pack`
    packs all ranks in one pass, ``detect_sdc`` compares two generations,
    :meth:`~repro.pup.puper.PackedShards.unpack` restores one, and a clone
    shares the read-only per-rank buffers (see
    :meth:`CheckpointStore.clone_generation`).  ``shards`` and ``shard(r)``
    are :class:`PackedState` views built on demand; ``shards=`` stores
    read-only copies of the given states' buffers.
    """

    __slots__ = ("iteration", "wallclock", "lineage")

    def __init__(self, iteration: int,
                 shards: dict[int, PackedState] | None = None,
                 wallclock: float = 0.0, lineage: int | None = None):
        super().__init__()
        self.iteration = iteration
        self.wallclock = wallclock
        #: Lineage token of the replica state the shards were packed from (see
        #: ``ACR`` and docs/protocols.md, "Replica lineage"); None when unknown.
        self.lineage = lineage
        for rank, state in (shards or {}).items():
            self.put(rank, state)


class CheckpointStore:
    """Safe + candidate checkpoint generations for both replicas."""

    def __init__(self, nodes_per_replica: int):
        if nodes_per_replica < 1:
            raise SimulationError("nodes_per_replica must be >= 1")
        self.nodes_per_replica = nodes_per_replica
        self._safe: dict[int, CheckpointGeneration] = {}
        self._candidate: dict[int, CheckpointGeneration] = {}
        #: Bytes each held generation counted for when it entered the
        #: store (safe: at install/commit; candidate: summed per put_shard),
        #: and their running total — :meth:`memory_bytes` without a re-sum.
        self._safe_bytes: dict[int, int] = {}
        self._candidate_bytes: dict[int, int] = {}
        self._held_bytes = 0
        self.commits = 0
        self.discards = 0
        #: High-water mark of :meth:`memory_bytes` across the store's life,
        #: sampled at every commit/install (the telemetry layer reports it).
        self.high_water_bytes = 0
        #: Store observers (e.g. the chaos InvariantMonitor); each may
        #: implement ``on_commit(replica, gen)``, ``on_install(replica, gen)``
        #: and ``on_discard(replica)``.
        self.observers: list = []

    def _notify(self, hook_name: str, *args) -> None:
        for obs in self.observers:
            hook = getattr(obs, hook_name, None)
            if hook is not None:
                hook(*args)

    # -- candidate lifecycle -----------------------------------------------------
    def begin_candidate(self, replica: int, iteration: int, wallclock: float,
                        lineage: int | None = None) -> None:
        self._held_bytes -= self._candidate_bytes.get(replica, 0)
        self._candidate[replica] = CheckpointGeneration(
            iteration, wallclock=wallclock, lineage=lineage)
        self._candidate_bytes[replica] = 0

    def put_shard(self, replica: int, rank: int, state: PackedState) -> None:
        """Store a read-only copy of ``state``'s buffer as ``rank``'s shard
        of the open candidate."""
        gen = self._candidate.get(replica)
        if gen is None:
            raise SimulationError(f"no candidate open for replica {replica}")
        delta = state.nbytes - gen.put(rank, state)
        self._candidate_bytes[replica] += delta
        self._held_bytes += delta
        if rank == self.nodes_per_replica - 1:
            # The candidate just filled while the safe generation still
            # exists: the double-buffering peak.
            self.high_water_bytes = max(self.high_water_bytes,
                                        self._held_bytes)

    def put_candidate(self, replica: int, gen: CheckpointGeneration) -> None:
        """Open ``gen``, a whole generation, as ``replica``'s candidate: what
        :meth:`begin_candidate` and one :meth:`put_shard` per rank do."""
        self._held_bytes -= self._candidate_bytes.get(replica, 0)
        self._candidate[replica] = gen
        nbytes = gen.nbytes
        self._candidate_bytes[replica] = nbytes
        self._held_bytes += nbytes
        self.high_water_bytes = max(self.high_water_bytes, self._held_bytes)

    def candidate(self, replica: int) -> CheckpointGeneration | None:
        return self._candidate.get(replica)

    def commit(self, replica: int) -> CheckpointGeneration:
        gen = self._candidate.pop(replica, None)
        if gen is None:
            raise SimulationError(f"no candidate to commit for replica {replica}")
        if not gen.complete(self.nodes_per_replica):
            raise SimulationError(
                f"candidate for replica {replica} has {len(gen.ranks)} of "
                f"{self.nodes_per_replica} shards"
            )
        self._safe[replica] = gen
        self._held_bytes -= self._safe_bytes.get(replica, 0)
        self._safe_bytes[replica] = self._candidate_bytes.pop(replica)
        self.commits += 1
        self.high_water_bytes = max(self.high_water_bytes, self._held_bytes)
        self._notify("on_commit", replica, gen)
        return gen

    def discard(self, replica: int) -> None:
        if self._candidate.pop(replica, None) is not None:
            self._held_bytes -= self._candidate_bytes.pop(replica)
            self.discards += 1
            self._notify("on_discard", replica)

    # -- safe generation access ------------------------------------------------------
    def install_safe(self, replica: int, gen: CheckpointGeneration) -> None:
        """Adopt a checkpoint generation as the rollback target (used when a
        recovery ships the healthy replica's checkpoint to the crashed one)."""
        if not gen.complete(self.nodes_per_replica):
            raise SimulationError("cannot install an incomplete generation")
        self._safe[replica] = gen
        nbytes = gen.nbytes
        self._held_bytes += nbytes - self._safe_bytes.get(replica, 0)
        self._safe_bytes[replica] = nbytes
        self.high_water_bytes = max(self.high_water_bytes, self._held_bytes)
        self._notify("on_install", replica, gen)

    def safe(self, replica: int) -> CheckpointGeneration | None:
        return self._safe.get(replica)

    def safe_iteration(self, replica: int) -> int | None:
        gen = self._safe.get(replica)
        return gen.iteration if gen is not None else None

    def memory_bytes(self) -> int:
        """Bytes of checkpoint data currently held in memory across both
        replicas (safe generations plus any open candidates).  The paper's
        in-memory double checkpointing trades exactly this footprint for
        disk-free recovery ("at the possible cost of memory overhead", §1).

        A running total kept by the store's own methods: shards written
        into a held generation behind the store's back are not counted.
        """
        return self._held_bytes

    def clone_generation(self, gen: CheckpointGeneration) -> CheckpointGeneration:
        """A generation holding ``gen``'s shards (installing one replica's
        checkpoint as the other's).  Stored buffers are read-only, so the
        clone shares them instead of copying; restoring either generation
        copies the bytes out into the application's arrays."""
        clone = CheckpointGeneration(gen.iteration, wallclock=gen.wallclock,
                                     lineage=gen.lineage)
        clone.share(gen)
        return clone

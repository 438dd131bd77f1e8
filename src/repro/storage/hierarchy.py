"""The modeled durable checkpoint hierarchy behind the in-memory store.

A :class:`DurableHierarchy` holds the level-2 (node-local) and level-3
(shared-FS) copies of committed checkpoint generations.  It is *modeled*
storage: generations live in memory as deep copies, write/read durations
come from each :class:`~repro.storage.tiers.TierSpec` cost model (the
framework charges them through ``ACR._charge``), and crash/corruption
behaviour is simulated precisely enough to test the recovery guarantees:

* every stored shard carries the SHA-256 of its buffer, recorded at stage
  time — the integrity guard recovery verifies before trusting a copy.  A
  generation staged on several tiers in one group write is hashed once: each
  tier still stores its own deep copy, all copies of the same bytes;
* a group write interrupted mid-flight (node death during the persist
  window) lands **torn** under the ``unsafe`` protocol — a prefix of shards
  intact, one shard's tail zeroed, the rest missing — and is aborted
  cleanly under ``atomic-dirsync`` (the previous generation survives);
* injected storage faults (armed torn writes, bit rot at rest, write-latency
  spikes) corrupt stored state the same way real media do: silently.

:meth:`restore` scans level 2 then level 3, newest generation first, and
returns the first copy whose every shard passes the SHA-256 guard — never a
torn or rotted one.  Per-tier hit/rejection counters make the fallback path
observable (``repro report``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointGeneration
from repro.storage.tiers import TierSpec, WriteProtocol
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStream


def _digest(buffer) -> str:
    """SHA-256 hex digest of a C-contiguous buffer, hashed without a copy."""
    return hashlib.sha256(buffer).hexdigest()


@dataclass
class StoredShard:
    """One rank's packed state as stored on a tier, plus its recorded guard.

    ``digest`` is the SHA-256 of the buffer *as staged*; faults mutate the
    buffer afterwards (tears, bit rot) without touching the digest, exactly
    like real media corrupting data under a stale checksum.
    """

    state: object  # PackedState (kept duck-typed: .buffer/.nbytes/.copy())
    digest: str
    #: Set when a simulated tear hit this shard (accounting only; detection
    #: always goes through the SHA-256 recompute).
    torn: bool = False


@dataclass
class StoredGeneration:
    """One checkpoint generation as stored on one tier."""

    iteration: int
    wallclock: float
    shards: dict[int, StoredShard] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return sum(s.state.nbytes for s in self.shards.values())


@dataclass
class TierState:
    """Runtime state of one tier: stored generations plus counters."""

    spec: TierSpec
    #: Oldest -> newest, trimmed to ``spec.keep_generations``.
    generations: list[StoredGeneration] = field(default_factory=list)
    last_persist: float = float("-inf")
    counters: dict[str, float] = field(default_factory=lambda: {
        "persists": 0,          # generations landed intact
        "torn_writes": 0,       # generations landed torn (unsafe protocol)
        "aborted_writes": 0,    # group writes aborted (atomic protocol)
        "bytes_written": 0,     # payload bytes of intact landings
        "restore_hits": 0,      # restores served from this tier
        "rejected_torn": 0,     # candidates rejected: incomplete/torn shards
        "rejected_rot": 0,      # candidates rejected: digest mismatch at rest
        "rot_injected": 0,      # bit-rot faults that actually flipped a bit
        "write_spikes": 0,      # latency-spike faults applied to a persist
    })
    #: Armed storage faults (consumed by the next persist to this tier).
    armed_torn: bool = False
    armed_spike: float = 0.0


@dataclass(frozen=True)
class RestoreResult:
    """Outcome of a successful hierarchy restore."""

    level: int
    generation: CheckpointGeneration
    read_time: float
    #: True when at least one newer/shallower stored copy was rejected by the
    #: integrity guard before this one was accepted.
    fellback: bool


class DurableHierarchy:
    """Level-2/3 durable copies of committed checkpoint generations."""

    def __init__(self, tiers, nodes_per_replica: int, *, seed: int = 0):
        specs = sorted(tiers, key=lambda s: s.level)
        if not specs:
            raise ConfigurationError("DurableHierarchy needs at least one tier")
        levels = [s.level for s in specs]
        if len(set(levels)) != len(levels):
            raise ConfigurationError(f"duplicate tier levels: {levels}")
        self.tiers: dict[int, TierState] = {
            s.level: TierState(spec=s) for s in specs
        }
        self.nodes_per_replica = int(nodes_per_replica)
        self.restore_misses = 0
        self.fallbacks = 0
        self._rng = RngStream(seed, "storage/faults")
        #: (level, staged StoredGeneration) pairs for the in-flight group
        #: write; populated by :meth:`stage`, consumed by complete/abort.
        self._inflight: list[tuple[int, StoredGeneration]] = []
        #: The generation last staged in the in-flight group write and its
        #: first staged copy, whose digests later tiers reuse.
        self._hashed: tuple[CheckpointGeneration, StoredGeneration] | None = None
        #: Observers (e.g. the chaos InvariantMonitor); hooks:
        #: ``on_tier_persist(level, stored_gen, torn)`` and
        #: ``on_tier_restore(level, stored_gen, generation)``.
        self.observers: list = []

    def _notify(self, hook_name: str, *args) -> None:
        for obs in self.observers:
            hook = getattr(obs, hook_name, None)
            if hook is not None:
                hook(*args)

    # -- scheduling ------------------------------------------------------------
    def due_levels(self, now: float, interval_of) -> list[int]:
        """Tiers whose persist interval has elapsed, shallowest first.

        ``interval_of(spec)`` supplies the current interval per tier (fixed,
        model-planned, or adaptive — the framework decides).
        """
        due = []
        for level, tier in sorted(self.tiers.items()):
            if now - tier.last_persist >= interval_of(tier.spec):
                due.append(level)
        return due

    # -- the group write -------------------------------------------------------
    def stage(self, level: int, gen: CheckpointGeneration, now: float) -> float:
        """Stage ``gen`` for persistence to ``level``; returns the simulated
        write duration (latency spikes included).  The write is in flight
        until :meth:`complete_inflight` / :meth:`abort_inflight`.

        The first tier ``gen`` is staged on in a group write copies and
        hashes its shards; later tiers of the same group write copy that
        staged copy, which nothing mutates before the write completes or
        aborts, and take its digests.  Each shard is hashed once per group
        write however many tiers are due.
        """
        tier = self.tiers[level]
        staged = StoredGeneration(iteration=gen.iteration,
                                  wallclock=gen.wallclock)
        if self._hashed is not None and self._hashed[0] is gen:
            for rank, first in self._hashed[1].shards.items():
                staged.shards[rank] = StoredShard(state=first.state.copy(),
                                                  digest=first.digest)
        else:
            for rank, shard in gen.shards.items():
                copy = shard.copy()
                staged.shards[rank] = StoredShard(state=copy,
                                                  digest=_digest(copy.buffer))
            self._hashed = (gen, staged)
        duration = tier.spec.write_time(staged.nbytes, len(staged.shards))
        if tier.armed_spike > 0.0:
            duration *= tier.armed_spike
            tier.armed_spike = 0.0
            tier.counters["write_spikes"] += 1
        tier.last_persist = now
        self._inflight.append((level, staged))
        return duration

    def complete_inflight(self, now: float) -> list[dict]:
        """Finish the in-flight group writes; armed torn-write faults bite
        here.  Returns one outcome dict per staged write (for the timeline)."""
        outcomes = []
        for level, staged in self._inflight:
            tier = self.tiers[level]
            if tier.armed_torn:
                tier.armed_torn = False
                if tier.spec.protocol is WriteProtocol.ATOMIC_DIRSYNC:
                    # The failed fsync/rename surfaces the tear before the
                    # group commits: the write aborts, the old copy survives.
                    tier.counters["aborted_writes"] += 1
                    outcomes.append({"level": level, "outcome": "aborted",
                                     "iteration": staged.iteration})
                    continue
                self._tear(staged, len(staged.shards) // 2, drop_rest=False)
                tier.counters["torn_writes"] += 1
                self._land(tier, staged)
                outcomes.append({"level": level, "outcome": "torn",
                                 "iteration": staged.iteration})
                self._notify("on_tier_persist", level, staged, True)
                continue
            tier.counters["persists"] += 1
            tier.counters["bytes_written"] += staged.nbytes
            self._land(tier, staged)
            outcomes.append({"level": level, "outcome": "ok",
                             "iteration": staged.iteration})
            self._notify("on_tier_persist", level, staged, False)
        self._inflight, self._hashed = [], None
        return outcomes

    def abort_inflight(self, now: float, fault_point: int | None = None) -> None:
        """A crash interrupted the in-flight group writes.

        Under ``unsafe`` the partially written generation lands torn: shards
        ``0..fault_point-1`` intact, shard ``fault_point`` with its tail
        zeroed (its recorded digest no longer matches), the rest missing.
        Under ``atomic-dirsync`` nothing lands — temp files never renamed.
        ``fault_point`` defaults to the middle of the group.
        """
        for level, staged in self._inflight:
            tier = self.tiers[level]
            tier.armed_torn = False
            if tier.spec.protocol is WriteProtocol.ATOMIC_DIRSYNC:
                tier.counters["aborted_writes"] += 1
                continue
            k = (len(staged.shards) // 2 if fault_point is None
                 else max(0, min(fault_point, len(staged.shards) - 1)))
            self._tear(staged, k, drop_rest=True)
            tier.counters["torn_writes"] += 1
            self._land(tier, staged)
            self._notify("on_tier_persist", level, staged, True)
        self._inflight, self._hashed = [], None

    def discard_inflight(self) -> None:
        """Silently drop staged writes (job quiescing; no torn residue)."""
        self._inflight, self._hashed = [], None

    @property
    def inflight(self) -> bool:
        return bool(self._inflight)

    def _land(self, tier: TierState, staged: StoredGeneration) -> None:
        tier.generations.append(staged)
        del tier.generations[:-tier.spec.keep_generations]

    @staticmethod
    def _tear(staged: StoredGeneration, fault_point: int, *,
              drop_rest: bool) -> None:
        ranks = sorted(staged.shards)
        if not ranks:
            return
        victim = ranks[min(fault_point, len(ranks) - 1)]
        buf = staged.shards[victim].state.buffer
        # Zero the tail: a genuinely different payload under the stale digest.
        buf[len(buf) // 2:] = 0
        staged.shards[victim].torn = True
        if drop_rest:
            for r in ranks[fault_point + 1:]:
                del staged.shards[r]

    def persist_now(self, gen: CheckpointGeneration, now: float,
                    levels=None) -> float:
        """Stage + complete in one step (benches and tests); returns the
        total simulated write duration across the requested levels."""
        total = 0.0
        for level in (sorted(self.tiers) if levels is None else levels):
            total += self.stage(level, gen, now)
        self.complete_inflight(now)
        return total

    # -- injected storage faults ------------------------------------------------
    def arm_torn_write(self, level: int) -> None:
        """The next group write to ``level`` tears (or aborts, if atomic)."""
        if level in self.tiers:
            self.tiers[level].armed_torn = True

    def arm_write_spike(self, level: int, factor: float = 8.0) -> None:
        """The next group write to ``level`` takes ``factor``x as long."""
        if level in self.tiers and factor > 0:
            self.tiers[level].armed_spike = float(factor)

    def inject_bit_rot(self, level: int, now: float) -> bool:
        """Flip one random bit in the newest generation stored at ``level``
        (silent corruption at rest).  Returns True when a bit flipped."""
        tier = self.tiers.get(level)
        if tier is None or not tier.generations:
            return False
        gen = tier.generations[-1]
        ranks = sorted(gen.shards)
        if not ranks:
            return False
        victim = gen.shards[ranks[int(self._rng.integers(0, len(ranks)))]]
        buf = victim.state.buffer
        if buf.nbytes == 0:
            return False
        byte = int(self._rng.integers(0, buf.nbytes))
        bit = int(self._rng.integers(0, 8))
        buf[byte] ^= (1 << bit)
        tier.counters["rot_injected"] += 1
        return True

    # -- restore ---------------------------------------------------------------
    def verify_generation(self, staged: StoredGeneration) -> str | None:
        """None when intact; otherwise why the integrity guard rejects it."""
        if len(staged.shards) != self.nodes_per_replica:
            return (f"incomplete: {len(staged.shards)}/"
                    f"{self.nodes_per_replica} shards")
        for rank in sorted(staged.shards):
            shard = staged.shards[rank]
            if _digest(shard.state.buffer) != shard.digest:
                kind = "torn shard" if shard.torn else "digest mismatch"
                return f"{kind} at rank {rank}"
        return None

    def restore(self, now: float) -> RestoreResult | None:
        """The newest intact generation anywhere in the hierarchy.

        Scans level 2 then level 3, newest stored copy first, verifying the
        SHA-256 guard on every shard; torn and rotted copies are rejected and
        counted, and the scan falls back to the next candidate.  Returns None
        when no tier holds an intact generation.
        """
        fellback = False
        for level, tier in sorted(self.tiers.items()):
            for staged in reversed(tier.generations):
                problem = self.verify_generation(staged)
                if problem is None:
                    # The generation stores copies of the stored bytes.
                    gen = CheckpointGeneration(
                        iteration=staged.iteration,
                        shards={r: s.state for r, s in staged.shards.items()},
                        wallclock=staged.wallclock,
                    )
                    if not gen.complete(self.nodes_per_replica):
                        raise SimulationError(
                            "verified generation is incomplete")  # pragma: no cover
                    tier.counters["restore_hits"] += 1
                    if fellback:
                        self.fallbacks += 1
                    self._notify("on_tier_restore", level, staged, gen)
                    return RestoreResult(
                        level=level,
                        generation=gen,
                        read_time=tier.spec.read_time(gen.nbytes),
                        fellback=fellback,
                    )
                fellback = True
                bucket = ("rejected_rot" if "mismatch" in problem
                          else "rejected_torn")
                tier.counters[bucket] += 1
        self.restore_misses += 1
        return None

    # -- observability -----------------------------------------------------------
    def counters(self) -> dict[str, float]:
        """Flat counter map (``tier<level>.<name>`` plus hierarchy totals)."""
        out: dict[str, float] = {}
        for level, tier in sorted(self.tiers.items()):
            for name, value in tier.counters.items():
                out[f"tier{level}.{name}"] = float(value)
        out["restore_misses"] = float(self.restore_misses)
        out["fallbacks"] = float(self.fallbacks)
        return out

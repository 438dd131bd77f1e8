"""Mini-application substrate.

Each application models one replica's numeric state *globally* and describes
it once, in ``pup(p)``, for checkpointing.  Arrays partitioned across the
replica's nodes are pupped with ``pup_split``: node ``rank``'s **shard**
holds its contiguous block of each, so a node's local checkpoint is exactly
the serialization of its partition (paper §2.1).  The two replicas run the same
deterministic computation from the same seed, which is what makes bit-exact
checkpoint comparison meaningful.

Timing and numerics are deliberately separable: ``scale`` shrinks the *actual*
arrays so functional experiments stay laptop-sized, while
``declared_bytes_per_core`` always reflects the paper's Table 2 configuration
and feeds the topology-aware cost model.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.network.allocation import CORES_PER_NODE
from repro.network.costs import CheckpointProfile
from repro.pup.puper import PUPer
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream


@dataclass(frozen=True)
class AppDescriptor:
    """Static facts about a mini-app (the row it occupies in Table 2)."""

    name: str
    programming_model: str      # "charm++" or "mpi" (via AMPI)
    table2_configuration: str   # e.g. "64*64*128 grid points" (per core)
    memory_pressure: str        # "high" or "low"
    declared_bytes_per_core: int
    serialize_factor: float     # PUP traversal slowdown (nested/scattered data)
    base_iteration_seconds: float  # forward-path time per iteration per task


class ShardRef:
    """Pupable view of one node's partition of a replica's state."""

    def __init__(self, app: "ReplicaApp", rank: int):
        self.app = app
        self.rank = rank

    def pup(self, p: PUPer) -> None:
        with p.shard_of(self.rank, self.app.nodes_per_replica):
            self.app.pup(p)


class ReplicaApp(ABC):
    """One replica's full application instance.

    Subclasses hold the numeric state, implement one deterministic
    ``advance()`` step, and describe the whole replica once in ``pup(p)``:
    replicated values with the scalar words (assigned back, for restores),
    arrays partitioned across the nodes with ``pup_split``, which cuts axis
    0 into one balanced part per node and restores in place::

        def pup(self, p):
            self.iteration = p.pup_int("iteration", self.iteration)
            p.pup_split("x", self.x)

    The same description packs one node's shard (:meth:`shard`) and, in one
    run, every node's (:meth:`~repro.pup.puper.PackedShards.pack`).
    """

    descriptor: AppDescriptor

    def __init__(self, nodes_per_replica: int, *, scale: float = 1.0,
                 seed: int = 0):
        if nodes_per_replica < 1:
            raise ConfigurationError("nodes_per_replica must be >= 1")
        if not (0 < scale <= 1.0):
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        self.nodes_per_replica = int(nodes_per_replica)
        self.scale = float(scale)
        self.seed = int(seed)
        self.iteration = 0
        self.rng = RngStream(seed, f"app/{self.descriptor.name}")
        #: ``_hash_unit`` state after mixing ``(seed, task_id)``, indexed by
        #: task id, as a list of Python ints (the scalar path) and a uint64
        #: array (the vectorised one); a tuple, so :meth:`copy_state_from`,
        #: which copies every ndarray attribute, leaves it alone.  Grown on
        #: demand by :meth:`_jitter_prefix_table`.
        self._jitter_prefixes: tuple[list[int], np.ndarray] = (
            [], np.empty(0, dtype=np.uint64))

    # -- numerics ----------------------------------------------------------------
    @abstractmethod
    def advance(self) -> None:
        """Run one deterministic iteration of the application."""

    def advance_to(self, iteration: int) -> None:
        """Advance the global state to ``iteration`` (no-op if already there)."""
        if iteration < self.iteration:
            raise ConfigurationError(
                f"cannot advance backwards: at {self.iteration}, asked {iteration}"
            )
        while self.iteration < iteration:
            self.advance()
            self.iteration += 1

    def copy_state_from(self, other: "ReplicaApp") -> None:
        """Make this replica's state a bitwise copy of ``other``'s, without
        running the kernel.

        ``other`` must be the same app built with the same configuration.
        Every ndarray attribute of ``other`` is copied into this instance's
        array of the same name with ``np.copyto`` -- so an app whose
        ``advance`` rebinds an array still copies into its own buffer, and
        the two replicas never share memory -- and numeric scalars (the
        iteration counter, HPCCG's ``rho``) are copied by value.
        """
        mine = vars(self)
        for name, value in vars(other).items():
            if isinstance(value, np.ndarray):
                np.copyto(mine[name], value)
            elif isinstance(value, (int, float, np.number)):
                mine[name] = value

    def clone(self) -> "ReplicaApp":
        """A second, independent replica equal to building this app again
        with the same arguments -- made by copying this one's state instead
        of drawing it from the random stream a second time.

        Every ndarray attribute is copied (same layout, own memory), lists
        and dicts are copied one level deep, the random stream is copied
        with its position, and everything else (descriptor, shape, bounds)
        is shared, as the app never mutates it.
        """
        twin = copy.copy(self)
        clone_of = vars(twin)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                clone_of[name] = value.copy(order="K")
            elif isinstance(value, (list, dict)):
                clone_of[name] = copy.copy(value)
        twin.rng = self.rng.copy()
        return twin

    @abstractmethod
    def pup(self, p: PUPer) -> None:
        """Serialize / restore / compare the replica's state.

        Must include the iteration counter so a restored shard knows where the
        replica resumes.
        """

    def shard(self, rank: int) -> ShardRef:
        if not (0 <= rank < self.nodes_per_replica):
            raise ConfigurationError(f"rank {rank} out of range")
        return ShardRef(self, rank)

    @abstractmethod
    def result_digest(self) -> np.ndarray:
        """A small deterministic summary of the state, for correctness checks."""

    # -- cost-model hooks ----------------------------------------------------------
    def checkpoint_profile(self) -> CheckpointProfile:
        """Declared (Table-2 scale) checkpoint footprint of one node."""
        d = self.descriptor
        return CheckpointProfile(
            nbytes_per_node=d.declared_bytes_per_core * CORES_PER_NODE,
            serialize_factor=d.serialize_factor,
        )

    def iteration_time(self, task_id: int, iteration: int) -> float:
        """Per-task compute time model with deterministic per-task jitter.

        The skew between tasks is what exercises the consensus protocol: tasks
        progress at different rates during application execution (§2.2).
        """
        base = self.descriptor.base_iteration_seconds
        # _hash_unit(seed, task_id, iteration) with its first two mixing
        # rounds read from a per-task table: only the iteration round runs
        # per call (this is called once per task per iteration).
        prefixes = self._jitter_prefixes[0]
        if not 0 <= task_id < len(prefixes):
            if task_id < 0:
                return base * (1.0 + 0.05 * _hash_unit(self.seed, task_id,
                                                       iteration))
            prefixes = self._jitter_prefix_table(task_id)[0]
        h = prefixes[task_id] ^ ((iteration + _GOLDEN) & _MASK64)
        h = (h * _MIX) & _MASK64
        h ^= h >> 31
        jitter = 0.05 * ((h & 0xFFFFFFFFFFFF) / _UNIT_SCALE)
        return base * (1.0 + jitter)

    def iteration_times(self, first: int, count: int,
                        task_ids: np.ndarray) -> np.ndarray:
        """:meth:`iteration_time` for iterations ``first .. first+count-1``
        (rows) of every task in ``task_ids`` (columns), as float64.

        The same hash and the same float operations in the same order, so
        each element equals the scalar call exactly.  Task ids must be
        non-negative.
        """
        ids = np.asarray(task_ids, dtype=np.int64)
        words = self._jitter_prefixes[1]
        top = int(ids.max()) if len(ids) else -1
        if top >= len(words):
            words = self._jitter_prefix_table(top)[1]
        p = words[ids]
        k = (np.arange(first, first + count, dtype=np.uint64)
             + np.uint64(_GOLDEN))
        h = p[None, :] ^ k[:, None]
        h *= np.uint64(_MIX)
        h ^= h >> np.uint64(31)
        h &= np.uint64(0xFFFFFFFFFFFF)
        jitter = 0.05 * (h.astype(np.float64) / _UNIT_SCALE)
        return self.descriptor.base_iteration_seconds * (1.0 + jitter)

    def _jitter_prefix_table(self,
                             task_id: int) -> tuple[list[int], np.ndarray]:
        """Grow the ``(seed, task_id)`` prefix table to cover ``task_id``.

        One vectorised uint64 pass (numpy wraps modulo 2**64, as the masks in
        :func:`_hash_unit` do); the table at least doubles each time, so
        building it for N tasks costs O(log N) passes.
        """
        size = max(task_id + 1, 2 * len(self._jitter_prefixes[0]), 64)
        h = _GOLDEN ^ ((self.seed + _GOLDEN) & _MASK64)   # round 1: seed
        h = (h * _MIX) & _MASK64
        h ^= h >> 31
        # Round 2, every task id at once.
        mixed = np.uint64(h) ^ (np.arange(size, dtype=np.uint64)
                                + np.uint64(_GOLDEN))
        mixed *= np.uint64(_MIX)
        mixed ^= mixed >> np.uint64(31)
        self._jitter_prefixes = (mixed.tolist(), mixed)
        return self._jitter_prefixes

    # -- helpers -----------------------------------------------------------------
    def _scaled(self, per_core: int, minimum: int = 2) -> int:
        """Scale a per-core element count down for functional runs."""
        return max(int(round(per_core * self.scale)), minimum)


_GOLDEN = 0x9E3779B97F4A7C15
_MIX = 0xBF58476D1CE4E5B9
_MASK64 = 0xFFFFFFFFFFFFFFFF
_UNIT_SCALE = float(1 << 48)


def _hash_unit(*keys: int) -> float:
    """Deterministic pseudo-random float in [0, 1) from integer keys."""
    h = _GOLDEN
    for k in keys:
        h ^= (int(k) + _GOLDEN) & _MASK64
        h = (h * _MIX) & _MASK64
        h ^= h >> 31
    return (h & 0xFFFFFFFFFFFF) / _UNIT_SCALE

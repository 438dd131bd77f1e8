"""Modeled durable checkpoint tiers (level 2/3) behind the in-memory store.

* :mod:`repro.storage.tiers` — per-tier cost models (latency, bandwidth,
  fsync barriers) and the unsafe vs. atomic-dirsync write protocols;
* :mod:`repro.storage.hierarchy` — the stored generations themselves, with
  SHA-256 integrity guards, torn-write/bit-rot fault simulation, and the
  fallback-scanning :meth:`~repro.storage.hierarchy.DurableHierarchy.restore`.

See ``docs/storage.md`` for the tier model and safety-overhead numbers.
"""

from repro.storage.hierarchy import (
    DurableHierarchy,
    RestoreResult,
    StoredGeneration,
    TierState,
)
from repro.storage.tiers import (
    NODE_LOCAL_TIER,
    SHARED_FS_TIER,
    TierSpec,
    WriteProtocol,
    default_tiers,
)

__all__ = [
    "DurableHierarchy",
    "RestoreResult",
    "StoredGeneration",
    "TierState",
    "NODE_LOCAL_TIER",
    "SHARED_FS_TIER",
    "TierSpec",
    "WriteProtocol",
    "default_tiers",
]

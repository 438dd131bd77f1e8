"""Silent-data-corruption detection between buddy checkpoints (§2.1, §4.2).

In the real system every node of replica 2 compares the remote checkpoint
shipped by its replica-1 buddy against its own local checkpoint.  Here the two
candidate checkpoint generations hold exactly those per-rank buffers, and we
run the same rank-wise comparison — either field-aware full comparison through
the ``PUPer::checker`` machinery, or 32-byte Fletcher digest comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointGeneration
from repro.pup.checker import compare_checkpoints, compare_checksums
from repro.pup.checksum import checkpoint_checksum
from repro.pup.puper import buffers_equal
from repro.util.errors import SimulationError


@dataclass
class SDCScanResult:
    """Outcome of comparing one checkpoint generation pair across all buddies."""

    clean: bool
    mismatched_ranks: set[int] = field(default_factory=set)
    method: str = "full"


def detect_sdc(
    local: CheckpointGeneration | None,
    remote: CheckpointGeneration | None,
    *,
    use_checksum: bool = False,
    rtol: float = 0.0,
) -> SDCScanResult:
    """Compare two replicas' candidate checkpoints rank by rank.

    Full mode first compares each rank's two buffers as bytes: a rank whose
    bytes are equal under one shared directory matches, exactly as
    :func:`compare_checkpoints`' shared-directory fast path decides, so
    only the other ranks are compared field by field.  Checksum mode
    compares every rank's Fletcher digests.
    """
    if local is None or remote is None:
        raise SimulationError("both candidate generations are required for SDC scan")
    if local.iteration != remote.iteration:
        raise SimulationError(
            f"comparing checkpoints of different iterations: "
            f"{local.iteration} vs {remote.iteration}"
        )
    if local.ranks != remote.ranks:
        raise SimulationError("checkpoint generations cover different ranks")

    result = SDCScanResult(clean=True, method="checksum" if use_checksum else "full")
    fast = not use_checksum and rtol >= 0
    pairs = zip(local.buffers, remote.buffers,
                local.directories, remote.directories)
    for rank, (a, b, a_fields, b_fields) in enumerate(pairs):
        if a is None or (fast and a_fields is b_fields and buffers_equal(a, b)):
            continue
        if use_checksum:
            cmp = compare_checksums(local.shard(rank), checkpoint_checksum(b))
        else:
            cmp = compare_checkpoints(local.shard(rank), remote.shard(rank),
                                      default_rtol=rtol)
        if not cmp.match:
            result.clean = False
            result.mismatched_ranks.add(rank)
    return result

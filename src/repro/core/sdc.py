"""Silent-data-corruption detection between buddy checkpoints (§2.1, §4.2).

In the real system every node of replica 2 compares the remote checkpoint
shipped by its replica-1 buddy against its own local checkpoint — either
field by field through the ``PUPer::checker`` machinery, or by 32-byte
Fletcher digests.  Here the two candidate checkpoint generations hold
exactly those per-rank buffers.

The scan is bytes-first.  It walks the two generations one aligned pair of
blocks at a time and finds, in one vectorised pass per pair, the ranks
whose bytes differ (as uint64 words when the row width is a multiple of 8,
an eighth of the element comparisons for the same equalities); only those
ranks reach the mode's comparison.  That is exact: equal bytes give equal
Fletcher digests, and equal bytes under one shared directory compare equal
field by field under any non-negative tolerance (what
:func:`compare_checkpoints`' own fast path decides), so every scan decision
is the one a digest or a field comparison of every rank would make —
including a digest collision on a rank whose bytes do differ, §5's
undetected SDC.  Full mode also compares every rank whose two
directories are not one shared object.  The simulated cost of a scan does
not depend on this: ``CostModel.checksum_time`` charges the digest of the
whole checkpoint at 4 instructions per byte either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import CheckpointGeneration
from repro.pup.checker import compare_checkpoints, compare_checksums
from repro.pup.checksum import checkpoint_checksum
from repro.pup.puper import block_pairs
from repro.util.errors import SimulationError


@dataclass
class SDCScanResult:
    """Outcome of comparing one checkpoint generation pair across all buddies."""

    clean: bool
    mismatched_ranks: set[int] = field(default_factory=set)
    method: str = "full"


def _words(rows: np.ndarray) -> np.ndarray:
    """``rows`` viewed as uint64 words when each row is a whole number of
    words, else as bytes; two rows are equal in one view iff in the other."""
    if rows.shape[1] % 8 == 0:
        return rows.view(np.uint64)
    return rows


def detect_sdc(
    local: CheckpointGeneration | None,
    remote: CheckpointGeneration | None,
    *,
    use_checksum: bool = False,
    rtol: float = 0.0,
) -> SDCScanResult:
    """Compare two replicas' candidate checkpoints, bytes first.

    Each aligned pair of blocks (:func:`~repro.pup.puper.block_pairs`) is
    compared row against row in one pass.  Checksum mode compares the
    Fletcher digests of the ranks whose bytes differ; full mode compares
    those ranks field by field, and also every rank whose directories are
    not shared (or every rank, under a negative ``rtol``).
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
    for lo, hi, a_rows, a_fields, b_rows, b_fields in block_pairs(
            local.blocks, remote.blocks):
        if a_rows.shape[1] == b_rows.shape[1] and (
                use_checksum or (a_fields is b_fields and rtol >= 0)):
            a_words, b_words = _words(a_rows), _words(b_rows)
            if np.array_equal(a_words, b_words):
                continue
            suspects = (lo + np.flatnonzero(
                (a_words != b_words).any(axis=1))).tolist()
        else:
            suspects = range(lo, hi)
        for rank in suspects:
            if use_checksum:
                cmp = compare_checksums(
                    local.shard(rank), checkpoint_checksum(remote.buffers[rank]))
            else:
                cmp = compare_checkpoints(local.shard(rank), remote.shard(rank),
                                          default_rtol=rtol)
            if not cmp.match:
                result.clean = False
                result.mismatched_ranks.add(rank)
    return result

"""Checkpoint comparison — the ``PUPer::checker`` of the paper (§4.1).

Every node in replica 2 receives the remote checkpoint of its buddy in
replica 1 and compares it against its own local checkpoint.  The comparison is
field-aware:

* bit-exact by default;
* per-field relative/absolute tolerances let applications accept floating-point
  round-off differences between replicas;
* fields marked ``skip_compare`` (timers, rank-dependent bookkeeping, ...) are
  serialized but never compared.

The checksum path compares 32-byte Fletcher digests instead of full buffers.

``detect_sdc`` (:mod:`repro.core.sdc`) calls these comparisons only for the
ranks whose bytes differ between the buddies (plus, in full mode, ranks
whose directories are not shared).  That is exact: equal bytes give equal
digests, and equal bytes under one shared directory compare equal field by
field under any non-negative tolerance — the fast path at the top of
:func:`compare_checkpoints`.  The simulated cost of a comparison is charged
by the cost model, not by the host work done here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pup.checksum import CHECKSUM_NBYTES, checkpoint_checksum
from repro.pup.puper import PackedState, PUPError, _dtype_of


@dataclass(frozen=True)
class FieldMismatch:
    """One field that differed between the local and remote checkpoints."""

    name: str
    kind: str  # "value", "structure"
    n_differing: int = 0
    max_abs_diff: float = 0.0
    detail: str = ""


@dataclass
class ComparisonResult:
    """Outcome of comparing two checkpoints of supposedly identical state."""

    match: bool
    mismatches: list[FieldMismatch] = field(default_factory=list)
    compared_bytes: int = 0
    skipped_bytes: int = 0
    method: str = "full"

    def summary(self) -> str:
        if self.match:
            return f"checkpoints match ({self.compared_bytes} bytes compared, {self.method})"
        names = ", ".join(m.name for m in self.mismatches[:5])
        more = "" if len(self.mismatches) <= 5 else f" (+{len(self.mismatches) - 5} more)"
        return f"SDC detected in fields: {names}{more}"


def _field_view(state: PackedState, rec) -> np.ndarray:
    raw = state.buffer[rec.offset : rec.offset + rec.nbytes]
    return raw.view(_dtype_of(rec.dtype)).reshape(rec.shape)


def compare_checkpoints(
    local: PackedState,
    remote: PackedState,
    *,
    default_rtol: float = 0.0,
    default_atol: float = 0.0,
) -> ComparisonResult:
    """Field-by-field comparison of two packed checkpoints.

    Parameters
    ----------
    local, remote:
        Checkpoints produced by the *same* pup description on the two replicas.
    default_rtol, default_atol:
        Global tolerances applied to floating-point fields that did not set
        their own; mirrors the user-customizable comparison function of §4.1.
    """
    fields = local.fields
    if (fields is remote.fields and default_rtol >= 0 and default_atol >= 0
            and np.array_equal(local.buffer, remote.buffer)):
        # One shared directory (``pack(..., like=...)``) and equal bytes:
        # every field compares equal — bitwise, and with any non-negative
        # tolerance under ``allclose(..., equal_nan=True)`` — so the result
        # is exactly what the per-field loop below would build.
        compared = skipped = 0
        for rec in fields:
            if rec.skip_compare:
                skipped += rec.nbytes
            else:
                compared += rec.nbytes
        return ComparisonResult(match=True, compared_bytes=compared,
                                skipped_bytes=skipped)

    result = ComparisonResult(match=True)
    if len(local.fields) != len(remote.fields):
        result.match = False
        result.mismatches.append(
            FieldMismatch(
                name="<directory>",
                kind="structure",
                detail=f"{len(local.fields)} vs {len(remote.fields)} fields",
            )
        )
        return result

    for lrec, rrec in zip(local.fields, remote.fields):
        if (lrec.name, lrec.dtype, lrec.shape) != (rrec.name, rrec.dtype, rrec.shape):
            result.match = False
            result.mismatches.append(
                FieldMismatch(
                    name=lrec.name,
                    kind="structure",
                    detail=f"{(lrec.dtype, lrec.shape)} vs {(rrec.dtype, rrec.shape)}",
                )
            )
            continue
        if lrec.skip_compare:
            result.skipped_bytes += lrec.nbytes
            continue

        lview = _field_view(local, lrec)
        rview = _field_view(remote, rrec)
        result.compared_bytes += lrec.nbytes

        rtol = lrec.rtol if lrec.rtol > 0 else default_rtol
        atol = lrec.atol if lrec.atol > 0 else default_atol
        is_float = np.issubdtype(lview.dtype, np.floating)
        if is_float and (rtol > 0 or atol > 0):
            ok = np.allclose(lview, rview, rtol=rtol, atol=atol, equal_nan=True)
            if not ok:
                with np.errstate(invalid="ignore"):
                    diff = np.abs(np.asarray(lview, dtype=np.float64)
                                  - np.asarray(rview, dtype=np.float64))
                bad = ~np.isclose(lview, rview, rtol=rtol, atol=atol, equal_nan=True)
                result.match = False
                result.mismatches.append(
                    FieldMismatch(
                        name=lrec.name,
                        kind="value",
                        n_differing=int(np.count_nonzero(bad)),
                        max_abs_diff=float(np.nanmax(diff)) if diff.size else 0.0,
                    )
                )
        else:
            lraw = local.buffer[lrec.offset : lrec.offset + lrec.nbytes]
            rraw = remote.buffer[rrec.offset : rrec.offset + rrec.nbytes]
            if not np.array_equal(lraw, rraw):
                bad = lraw != rraw
                result.match = False
                max_diff = 0.0
                if is_float:
                    with np.errstate(invalid="ignore"):
                        d = np.abs(np.asarray(lview, dtype=np.float64)
                                   - np.asarray(rview, dtype=np.float64))
                    max_diff = float(np.nanmax(d)) if d.size else 0.0
                result.mismatches.append(
                    FieldMismatch(
                        name=lrec.name,
                        kind="value",
                        n_differing=int(np.count_nonzero(bad)),
                        max_abs_diff=max_diff,
                    )
                )
    return result


def compare_checksums(local: PackedState, remote_digest: bytes) -> ComparisonResult:
    """Compare a local checkpoint against the buddy's 32-byte Fletcher digest.

    This is the low-bandwidth detection path (§4.2).  It cannot report *which*
    field was corrupted — only that corruption happened — and it cannot honour
    per-field tolerances; the paper accepts both limitations.
    """
    if len(remote_digest) != CHECKSUM_NBYTES:
        raise PUPError(f"bad checksum digest length {len(remote_digest)}")
    local_digest = checkpoint_checksum(local.buffer)
    match = local_digest == remote_digest
    result = ComparisonResult(match=match, compared_bytes=local.nbytes, method="checksum")
    if not match:
        result.mismatches.append(
            FieldMismatch(name="<checksum>", kind="value", detail="Fletcher digest differs")
        )
    return result

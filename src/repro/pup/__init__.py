"""PUP (Pack/UnPack) serialization framework — the checkpoint substrate.

Mirrors the Charm++ PUP framework ACR builds on (paper §4.1): one ``pup``
description per application drives sizing (``sizeof``), packing (``pack``,
with ``like=`` sharing the previous directory), unpacking (``unpack``) and
SDC comparison (``compare_checkpoints``), plus the 32-byte striped Fletcher
digest buddies exchange instead (``checkpoint_checksum``, paper §4.2).
"""

from repro.pup.checker import (
    ComparisonResult,
    FieldMismatch,
    compare_checkpoints,
    compare_checksums,
)
from repro.pup.checksum import (
    CHECKSUM_NBYTES,
    checkpoint_checksum,
    fletcher32,
    fletcher64,
)
from repro.pup.puper import (
    FieldRecord,
    PackedState,
    Pupable,
    PUPError,
    PUPer,
    UnpackingPUPer,
    pack,
    sizeof,
    unpack,
)

__all__ = [
    "ComparisonResult",
    "FieldMismatch",
    "compare_checkpoints",
    "compare_checksums",
    "CHECKSUM_NBYTES",
    "checkpoint_checksum",
    "fletcher32",
    "fletcher64",
    "FieldRecord",
    "PackedState",
    "Pupable",
    "PUPError",
    "PUPer",
    "UnpackingPUPer",
    "pack",
    "sizeof",
    "unpack",
]

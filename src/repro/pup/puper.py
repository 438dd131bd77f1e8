"""Pack/UnPack (PUP) serialization framework.

This mirrors the Charm++ PUP framework that ACR builds on (paper §4.1): an
application describes its state once in a ``pup(p)`` method, and the same
description drives four operations:

* **sizing** — the checkpoint footprint (:func:`sizeof`);
* **packing** — serialize state into a flat byte buffer.  :func:`pack` runs
  the description exactly once, collecting each field's contiguous byte
  view and directory key, then joins the views with one concatenation — a
  single copy of the payload.  Because there is only one pass, the
  description need not be deterministic across two runs (it only must not
  mutate a field it already pupped in the same call).  ``pack(obj,
  like=prev)`` shares ``prev``'s directory when every field key matches, so
  steady-state packs build no :class:`FieldRecord` at all;
* **packing a replica** — :meth:`PackedShards.pack` runs a replica's
  description once for all its shards: each gets its part of every
  ``pup_split`` array and a copy of every other field;
* **unpacking** — restore state from a buffer (:class:`UnpackingPUPer`), or
  a whole replica from its shards (:meth:`PackedShards.unpack`);
* **checking** — compare two checkpoints field-by-field to detect silent data
  corruption (:mod:`repro.pup.checker`), including user-customizable per-field
  tolerances and skipped fields, exactly as the paper's ``PUPer::checker``.

All pup methods *return* the field value; during unpacking the returned value
is the deserialized one, so application code is written direction-agnostically::

    def pup(self, p):
        self.iteration = p.pup_int("iteration", self.iteration)
        self.grid = p.pup_array("grid", self.grid)
"""

from __future__ import annotations

import ast
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.util.errors import ACRError, ConfigurationError


class PUPError(ACRError):
    """Raised on malformed pup descriptions or corrupt buffers."""


@runtime_checkable
class Pupable(Protocol):
    """Anything that exposes its checkpointable state through ``pup``."""

    def pup(self, p: "PUPer") -> None:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class FieldRecord:
    """Directory entry for one pupped field inside a packed buffer."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int
    #: Relative tolerance for SDC comparison; 0.0 means bit-exact.
    rtol: float = 0.0
    #: Absolute tolerance for SDC comparison.
    atol: float = 0.0
    #: Fields marked skip are serialized but never compared (paper §4.1:
    #: "ignore comparing data that may vary between different replicas").
    skip_compare: bool = False


#: ``str(dtype)`` of every builtin dtype seen so far: the string costs a few
#: microseconds to build and every field of every pack and unpack needs it.
_DTYPE_NAMES: dict[np.dtype, str] = {}


def _dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, memoised for builtin dtypes."""
    name = _DTYPE_NAMES.get(dtype)
    if name is None:
        name = str(dtype)
        # Only builtin dtypes are keyed: structured and metadata-carrying
        # dtypes can compare equal to one another yet print differently.
        if dtype.isbuiltin:
            _DTYPE_NAMES[dtype] = name
    return name


#: ``np.dtype(name)`` for every directory dtype string seen so far — the
#: inverse of :func:`_dtype_name`, needed by every field of every unpack
#: and comparison.
_DTYPES: dict[str, np.dtype] = {}


def _dtype_of(name: str) -> np.dtype:
    """The dtype a directory string names, memoised.

    Builtin and byte-order-marked names parse with :func:`numpy.dtype`;
    structured dtypes print as a Python literal (a field list or a
    ``names``/``formats``/``offsets`` dict) that ``numpy.dtype`` only
    accepts once evaluated.  A string always names the same dtype, so every
    name is memoised.
    """
    dtype = _DTYPES.get(name)
    if dtype is None:
        try:
            dtype = np.dtype(name)
        except (TypeError, ValueError):
            try:
                dtype = np.dtype(ast.literal_eval(name))
            except (ValueError, SyntaxError, TypeError) as exc:
                raise PUPError(f"unknown field dtype {name!r}") from exc
        _DTYPES[name] = dtype
    return dtype


def _as_array(name: str, value: Any) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype == object:
        raise PUPError(f"field {name!r}: object dtypes cannot be pupped")
    return arr


def _split_start(total: int, parts: int, rank: int) -> int:
    """Where part ``rank`` of :func:`partition_bounds` starts (``rank ==
    parts`` gives ``total``)."""
    base, extra = divmod(total, parts)
    return rank * base + min(rank, extra)


def partition_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``total`` items into ``parts`` contiguous, balanced ranges; the
    first ``total % parts`` ranges hold one item more."""
    if parts < 1 or total < parts:
        raise ConfigurationError(f"cannot split {total} items into {parts} parts")
    starts = [_split_start(total, parts, r) for r in range(parts + 1)]
    return list(zip(starts, starts[1:]))


def _split_array(name: str, value: Any, parts: int) -> np.ndarray:
    """``value`` as an array that ``pup_split`` can cut into ``parts``."""
    arr = _as_array(name, value)
    if arr.ndim == 0 or len(arr) < parts:
        raise PUPError(f"field {name!r}: cannot split shape {arr.shape} "
                       f"into {parts} shards")
    return arr


class PUPer:
    """Base class defining the pup vocabulary.

    Subclasses implement :meth:`_handle` to collect or read the field.
    """

    #: True when the PUPer restores state (application code may branch on it,
    #: e.g. to rebuild derived data after restart).
    is_unpacking: bool = False
    #: Per-instance stack of nested-object scope names.  Kept on the instance
    #: (not the module) so independent PUPers — e.g. on different campaign
    #: worker processes or threads — can pup nested objects concurrently.
    #: Lazily created so subclasses need not call ``super().__init__``.
    _scopes: list[str] | None = None
    #: ``(rank, count)`` while the PUPer serves one shard of a replica
    #: (:meth:`shard_of`): ``pup_split`` then pups only that shard's part.
    _shard: tuple[int, int] | None = None

    def _handle(
        self,
        name: str,
        arr: np.ndarray,
        *,
        rtol: float,
        atol: float,
        skip_compare: bool,
    ) -> np.ndarray:
        raise NotImplementedError

    def _dispatch(self, name: str, arr: np.ndarray, *, rtol: float = 0.0,
                  atol: float = 0.0, skip_compare: bool = False) -> np.ndarray:
        return self._handle(self._qualify(name), arr, rtol=rtol, atol=atol,
                            skip_compare=skip_compare)

    def _qualify(self, name: str) -> str:
        if self._scopes:
            return ".".join(self._scopes) + "." + name
        return name

    # -- scalar helpers --------------------------------------------------------
    def pup_int(self, name: str, value: int) -> int:
        out = self._dispatch(name, np.asarray(int(value), dtype=np.int64))
        return int(out)

    def pup_float(
        self, name: str, value: float, *, rtol: float = 0.0, atol: float = 0.0,
        skip_compare: bool = False,
    ) -> float:
        out = self._dispatch(name, np.asarray(float(value), dtype=np.float64),
                             rtol=rtol, atol=atol, skip_compare=skip_compare)
        return float(out)

    def pup_bool(self, name: str, value: bool) -> bool:
        out = self._dispatch(name, np.asarray(1 if value else 0, dtype=np.int64))
        return bool(int(out))

    def pup_str(self, name: str, value: str) -> str:
        data = np.frombuffer(value.encode("utf-8"), dtype=np.uint8).copy()
        # The buffer is a transient copy: mark it read-only so in-place fault
        # injectors know corrupting it would never reach the application.
        data.flags.writeable = False
        out = self._dispatch(name, data)
        return bytes(np.asarray(out, dtype=np.uint8)).decode("utf-8")

    def pup_bytes(self, name: str, value: bytes) -> bytes:
        data = np.frombuffer(value, dtype=np.uint8).copy()
        data.flags.writeable = False
        out = self._dispatch(name, data)
        return bytes(np.asarray(out, dtype=np.uint8))

    # -- array / composite helpers ---------------------------------------------
    @contextmanager
    def shard_of(self, rank: int, count: int) -> Iterator["PUPer"]:
        """Serve shard ``rank`` of ``count`` inside the ``with`` block."""
        saved, self._shard = self._shard, (rank, count)
        try:
            yield self
        finally:
            self._shard = saved

    def pup_split(self, name: str, value: np.ndarray, *, rtol: float = 0.0,
                  atol: float = 0.0, skip_compare: bool = False) -> np.ndarray:
        """Pup axis 0 of ``value`` cut into one balanced part per shard, as
        :func:`partition_bounds` cuts it: under :meth:`shard_of` the shard's
        part, else the whole array, with :meth:`pup_array`.  Parts restore
        in place (else :class:`PUPError`), so this returns ``value``."""
        rank, count = self._shard or (0, 1)
        arr = _split_array(name, value, count)
        part = arr[_split_start(len(arr), count, rank):
                   _split_start(len(arr), count, rank + 1)]
        out = self.pup_array(name, part, rtol=rtol, atol=atol,
                             skip_compare=skip_compare)
        if out is not part:
            raise PUPError(f"field {name!r}: a split field restores in place "
                           "only (shape, dtype or writeability differs)")
        return value

    def pup_array(
        self,
        name: str,
        value: np.ndarray,
        *,
        rtol: float = 0.0,
        atol: float = 0.0,
        skip_compare: bool = False,
    ) -> np.ndarray:
        """Pup a numpy array (the common case for HPC state)."""
        return self._dispatch(name, _as_array(name, value),
                              rtol=rtol, atol=atol, skip_compare=skip_compare)

    def pup_object(self, name: str, obj: Pupable) -> Pupable:
        """Pup a nested object that itself implements ``pup``."""
        if self._scopes is None:
            self._scopes = []
        self._scopes.append(name)
        try:
            obj.pup(self)
        finally:
            self._scopes.pop()
        return obj

    def pup_list_of_arrays(
        self, name: str, values: list[np.ndarray], *, rtol: float = 0.0,
        atol: float = 0.0,
    ) -> list[np.ndarray]:
        """Pup a list of arrays whose length is part of the state."""
        n = self.pup_int(f"{name}.__len__", len(values))
        if self.is_unpacking and n != len(values):
            # The caller restores into a list of possibly different length:
            # grow/shrink with empty placeholders before reading elements.
            values = [np.empty(0) for _ in range(n)]
        out = []
        for i in range(n):
            src = values[i] if i < len(values) else np.empty(0)
            out.append(self.pup_array(f"{name}[{i}]", src, rtol=rtol, atol=atol))
        if not self.is_unpacking:
            return values
        return out


class _ViewPUPer(PUPer):
    """One pass over a pup description for :func:`pack` and :func:`sizeof`:
    each field's contiguous flat byte view and its directory key, nothing
    copied yet."""

    def __init__(self) -> None:
        self.views: list[np.ndarray] = []
        #: ``(name, dtype name, shape, nbytes, rtol, atol, skip_compare)``.
        self.keys: list[tuple] = []

    def _handle(self, name, arr, *, rtol, atol, skip_compare):
        flat = np.ascontiguousarray(arr).view(np.uint8).reshape(-1)
        self.views.append(flat)
        self.keys.append((name, _dtype_name(arr.dtype), arr.shape, flat.nbytes,
                          rtol, atol, skip_compare))
        return arr


def _shares_directory(keys: list[tuple], fields: list[FieldRecord]) -> bool:
    """True when ``fields`` is exactly the contiguous directory ``keys`` make."""
    if len(keys) != len(fields):
        return False
    offset = 0
    for (name, dtype, shape, nbytes, rtol, atol, skip), rec in zip(keys, fields):
        if (rec.name != name or rec.offset != offset or rec.nbytes != nbytes
                or rec.dtype != dtype or rec.shape != shape or rec.rtol != rtol
                or rec.atol != atol or rec.skip_compare != skip):
            return False
        offset += nbytes
    return True


def _build_directory(keys: list[tuple]) -> list[FieldRecord]:
    fields: list[FieldRecord] = []
    names: set[str] = set()
    offset = 0
    for name, dtype, shape, nbytes, rtol, atol, skip in keys:
        if name in names:
            raise PUPError(f"duplicate pup field name {name!r}")
        names.add(name)
        fields.append(FieldRecord(name, dtype, shape, offset, nbytes,
                                  rtol, atol, skip))
        offset += nbytes
    return fields


class UnpackingPUPer(PUPer):
    """Restores an object from a buffer produced by :func:`pack`.

    Fields are matched positionally *and* validated by name/dtype/shape, so a
    drifting pup description fails loudly rather than silently misreading.
    """

    is_unpacking = True

    def __init__(self, buffer: np.ndarray, fields: list[FieldRecord]):
        self._buffer = np.asarray(buffer, dtype=np.uint8)
        self._fields = fields
        self._index = 0

    def _handle(self, name, arr, *, rtol, atol, skip_compare):
        if self._index >= len(self._fields):
            raise PUPError(f"pup description reads past checkpoint end at {name!r}")
        rec = self._fields[self._index]
        self._index += 1
        if rec.name != name:
            raise PUPError(f"pup field order mismatch: expected {rec.name!r}, got {name!r}")
        raw = self._buffer[rec.offset : rec.offset + rec.nbytes]
        if raw.nbytes != rec.nbytes:
            raise PUPError(f"field {name!r}: truncated checkpoint buffer")
        restored = raw.view(_dtype_of(rec.dtype)).reshape(rec.shape)
        if (arr.shape == rec.shape and _dtype_name(arr.dtype) == rec.dtype
                and arr.flags.writeable and arr.ndim > 0):
            # In-place restore: large state arrays keep their identity, which
            # matters for applications holding views into them.
            np.copyto(arr, restored)
            return arr
        return restored.copy()

    def finish(self) -> None:
        """Assert the pup description consumed exactly the whole directory."""
        if self._index != len(self._fields):
            raise PUPError(
                f"pup description consumed {self._index} of {len(self._fields)} fields"
            )


@dataclass
class PackedState:
    """A serialized object state: buffer plus field directory.

    This is the unit that ACR stores, ships between buddies, and compares.
    """

    buffer: np.ndarray
    fields: list[FieldRecord] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return int(self.buffer.nbytes)


def pack(obj: Pupable, like: PackedState | None = None) -> PackedState:
    """Serialize ``obj`` via its pup method.

    Runs the pup description once, collecting every field's contiguous byte
    view and directory key, then makes one concatenation — a single copy of
    the payload.  The description therefore need not be deterministic
    across runs, but it must not mutate a field it has already pupped in the
    same call (the views are only copied at the end).

    ``like`` is an earlier pack of the same kind of object (the previous
    checkpoint of this shard, or the buddy's).  When every field's key —
    name, dtype, shape, byte size, tolerances and skip flag — matches
    ``like.fields`` entry for entry, the new state *shares* that directory
    object instead of building a new one; directories are immutable once
    built, and :func:`~repro.pup.checker.compare_checkpoints` takes a fast
    path for two states that share one.  Any difference (a resized array, a
    changed dtype or tolerance, a string of another length) builds a fresh
    directory, with the duplicate-name check.
    """
    p = _ViewPUPer()
    obj.pup(p)
    views, keys = p.views, p.keys
    buf = np.concatenate(views) if views else np.empty(0, dtype=np.uint8)
    if like is not None and _shares_directory(keys, like.fields):
        return PackedState(buf, like.fields)
    return PackedState(buf, _build_directory(keys))


def _field_rows(rows: np.ndarray, offset: int, nbytes: int, dtype: np.dtype,
                shape: tuple[int, ...]) -> np.ndarray:
    """One field's bytes in every row of ``rows`` as one ``(len(rows),) +
    shape`` array of ``dtype``: a view, never a copy."""
    return rows[:, offset:offset + nbytes].view(dtype).reshape(
        (len(rows),) + shape)


#: Bytes per block, unless one row is wider.  A run of shards is stored as
#: blocks of at most this size: freeing a multi-MiB ``malloc`` chunk raises
#: glibc's dynamic mmap threshold to its size, after which the apps'
#: temporaries come from the heap and fragment it (``ckpt_bulk`` peak RSS
#: 180 MiB with one block per run, 168 MiB with blocks of this size).
_BLOCK_BYTES = 1 << 18


def _blocks(first: int, end: int, width: int) -> list[tuple[int, int]]:
    """The ``[first, end)`` ranges of the blocks a run of shards fills."""
    step = max(1, _BLOCK_BYTES // width) if width else end - first
    return [(at, min(at + step, end)) for at in range(first, end, step)]


def block_pairs(a: list, b: list) -> Iterator[tuple]:
    """Walk two :attr:`PackedShards.blocks` lists that hold the same ranks
    one aligned piece at a time: ``(lo, hi, a_rows, a_fields, b_rows,
    b_fields)``, where ``a_rows`` and ``b_rows`` are each side's rows of
    ranks ``[lo, hi)``.  Where both sides hold blocks that start and end
    together, each pair of blocks is one piece; a standalone shard on
    either side (one stored by :meth:`PackedShards.put` or replaced by
    :meth:`PackedShards.set_shard`) makes a piece of its one rank."""
    i = j = 0
    while i < len(a) and j < len(b):
        a_lo, a_hi, a_rows, a_fields = a[i]
        b_lo, b_hi, b_rows, b_fields = b[j]
        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
        if lo < hi:
            yield (lo, hi, a_rows[lo - a_lo:hi - a_lo], a_fields,
                   b_rows[lo - b_lo:hi - b_lo], b_fields)
        i += a_hi <= b_hi
        j += b_hi <= a_hi


class _BlockPacker(PUPer):
    """Collects a replica's description for :meth:`PackedShards.pack`:
    ``(name, array, split, rtol, atol, skip_compare)`` per field."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.fields: list[tuple] = []

    def _handle(self, name, arr, *, rtol, atol, skip_compare):
        self.fields.append((name, arr, False, rtol, atol, skip_compare))
        return arr

    def pup_split(self, name, value, *, rtol=0.0, atol=0.0,
                  skip_compare=False):
        self.fields.append((self._qualify(name),
                            _split_array(name, value, self.count), True,
                            rtol, atol, skip_compare))
        return value


class _BlockUnpacker(UnpackingPUPer):
    """Restores a replica from all its shards in one run of its description.

    The shards are read block by block, as the generation stores them
    (:attr:`PackedShards.blocks`).  Every distinct directory is checked
    once per field; a split field is copied into the target in place with
    one strided copy per block, and a replicated field restores from the
    last shard.
    """

    def __init__(self, shards: "PackedShards") -> None:
        self.count = shards._extent()
        #: ``(first rank, end rank, rows, directory)`` per block.
        self._runs = shards.blocks
        if not shards.complete(self.count):
            missing = next(r for r, buf in enumerate(shards.buffers)
                           if buf is None)
            raise PUPError(f"shard {missing} is not stored")
        super().__init__(self._runs[-1][2][-1], self._runs[-1][3])
        self._distinct = list({id(run[3]): run[3] for run in self._runs}
                              .values())

    def _handle(self, name, arr, *, rtol, atol, skip_compare):
        self._check(name)
        return super()._handle(name, arr, rtol=rtol, atol=atol,
                               skip_compare=skip_compare)

    def _check(self, name: str) -> None:
        for fields in self._distinct:
            if self._index >= len(fields) or fields[self._index].name != name:
                raise PUPError(f"pup field order mismatch at {name!r}")

    def pup_split(self, name, value, *, rtol=0.0, atol=0.0,
                  skip_compare=False):
        name = self._qualify(name)
        arr = _split_array(name, value, self.count)
        self._check(name)
        index, self._index = self._index, self._index + 1
        if not arr.flags.writeable:
            raise PUPError(f"field {name!r}: the target is read-only")
        dtype, total = _dtype_name(arr.dtype), len(arr)
        for first, end, rows, fields in self._runs:
            rec = fields[index]
            lo, hi = (_split_start(total, self.count, r) for r in (first, end))
            shape = (_split_start(total, self.count, first + 1) - lo,
                     *arr.shape[1:])
            if (rec.dtype, rec.shape) != (dtype, shape) \
                    or hi - lo != shape[0] * (end - first) \
                    or rows.shape[1] < rec.offset + rec.nbytes:
                raise PUPError(f"field {name!r}: shards {first}..{end - 1} "
                               f"hold {rec.dtype}{list(rec.shape)}, the target "
                               f"splits into {dtype}{list(shape)}")
            np.copyto(arr[lo:hi].reshape((end - first,) + shape),
                      _field_rows(rows, rec.offset, rec.nbytes, arr.dtype,
                                  shape))
        return value

    def finish(self) -> None:
        for fields in self._distinct:
            self._fields = fields
            super().finish()


class PackedShards:
    """Shards ``0..n-1`` of one replica, as :meth:`pack` packs them.

    ``blocks`` holds the stored shards in rank order as ``(first rank, end
    rank, rows, directory)``: ``rows`` is a 2-D uint8 array whose row ``i``
    holds the bytes of shard ``first + i``, all under one directory.
    :meth:`pack` stores a replica as a few wide blocks and nothing per
    shard; a shard stored on its own (:meth:`put`, :meth:`set_shard`) is a
    block of one row.  The sizes and rank sets below, the restore and the
    buddy compare walk ``blocks``.

    ``buffers[r]`` is shard ``r``'s packed bytes and ``directories[r]`` its
    field directory (``None`` in both marks a shard not stored);
    :meth:`shard` pairs them as a :class:`PackedState`.  The two lists are
    built from ``blocks`` on first read, for the cold readers (tiers, the
    chaos monitor, tests); every change of a shard goes through
    :meth:`set_shard`, which builds them and keeps all three in step.
    Every buffer is a read-only array that no one writes after it is
    stored, so copies of the lists share the buffers safely.
    """

    __slots__ = ("_lists_built", "blocks")

    def __init__(self) -> None:
        self.blocks: list[tuple[int, int, np.ndarray, list | None]] = []
        #: ``(buffers, directories)``, or None while not built.
        self._lists_built: tuple[list, list] | None = ([], [])

    @property
    def buffers(self) -> list[np.ndarray | None]:
        """Shard ``r``'s read-only buffer at ``[r]``, None if not stored."""
        return self._lists()[0]

    @property
    def directories(self) -> list[list[FieldRecord] | None]:
        """Shard ``r``'s field directory at ``[r]``, None if not stored."""
        return self._lists()[1]

    def _lists(self) -> tuple[list, list]:
        """``buffers`` and ``directories``, built from ``blocks`` if need be."""
        if self._lists_built is None:
            size = self._extent()
            buffers: list[np.ndarray | None] = [None] * size
            directories: list[list[FieldRecord] | None] = [None] * size
            for first, end, rows, fields in self.blocks:
                buffers[first:end] = rows
                directories[first:end] = [fields] * (end - first)
            self._lists_built = (buffers, directories)
        return self._lists_built

    def _extent(self) -> int:
        """``len(buffers)``, without building the list."""
        if self._lists_built is not None:
            return len(self._lists_built[0])
        return self.blocks[-1][1] if self.blocks else 0

    def _directory(self, rank: int) -> list[FieldRecord] | None:
        """``directories[rank]`` (None past the end), read from ``blocks``."""
        at = bisect_right(self.blocks, rank, key=lambda block: block[0])
        if at and self.blocks[at - 1][1] > rank:
            return self.blocks[at - 1][3]
        return None

    @property
    def nbytes(self) -> int:
        return sum(block[2].nbytes for block in self.blocks)

    @property
    def ranks(self) -> list[int]:
        """The shards stored, in order."""
        return list(chain.from_iterable(range(first, end)
                                        for first, end, _, _ in self.blocks))

    def complete(self, count: int) -> bool:
        """True when exactly shards ``0..count-1`` are stored."""
        return (self._extent() == count
                and sum(end - first for first, end, _, _ in self.blocks)
                == count)

    def shard(self, rank: int) -> PackedState:
        """Shard ``rank`` as a :class:`PackedState` over its read-only buffer."""
        buf = self.buffers[rank] if 0 <= rank < len(self.buffers) else None
        if buf is None:
            raise PUPError(f"shard {rank} is not stored")
        return PackedState(buf, self.directories[rank])

    @property
    def shards(self) -> dict[int, PackedState]:
        """Every stored shard by rank, built on demand."""
        return {r: self.shard(r) for r in self.ranks}

    def set_shard(self, rank: int, buffer: np.ndarray | None,
                  fields: list[FieldRecord] | None) -> int:
        """Make the read-only ``buffer`` shard ``rank``, under ``fields``,
        or drop the shard when ``buffer`` is None; returns the byte size of
        the shard it replaces (0 if none).  The block that held ``rank`` is
        cut around it, so its other rows keep sharing one block."""
        buffers, directories = self._lists()
        missing = rank + 1 - len(buffers)
        if missing > 0:
            buffers.extend([None] * missing)
            directories.extend([None] * missing)
        old = buffers[rank]
        buffers[rank] = buffer
        directories[rank] = None if buffer is None else fields
        at = bisect_right(self.blocks, rank, key=lambda block: block[0])
        before = after = ()
        if at and self.blocks[at - 1][1] > rank:
            at -= 1
            first, end, rows, held = self.blocks.pop(at)
            if first < rank:
                before = ((first, rank, rows[:rank - first], held),)
            if rank + 1 < end:
                after = ((rank + 1, end, rows[rank + 1 - first:], held),)
        own = () if buffer is None else (
            (rank, rank + 1, buffer.reshape(1, -1).view(np.uint8), fields),)
        self.blocks[at:at] = (*before, *own, *after)
        return old.nbytes if old is not None else 0

    def put(self, rank: int, state: PackedState) -> int:
        """Store a read-only copy of ``state``'s buffer as shard ``rank``;
        returns the byte size of the shard it replaces (0 if none)."""
        buf = state.buffer.copy()
        buf.flags.writeable = False
        return self.set_shard(rank, buf, state.fields)

    def share(self, other: "PackedShards") -> None:
        """Hold ``other``'s shards: the blocks, buffers and directories by
        reference, in lists of this object's own (the per-shard lists only
        if ``other`` has built them)."""
        self.blocks = list(other.blocks)
        built = other._lists_built
        self._lists_built = (None if built is None
                             else (list(built[0]), list(built[1])))

    def pack(self, obj: Pupable, count: int,
             like: "PackedShards | None" = None) -> None:
        """Pack ``obj``, a replica, as ``count`` shards in one run of its
        description.

        Shard ``r`` holds part ``r`` of every ``pup_split`` field and a copy
        of every other field: the bytes ``pack(ShardRef(obj, r))`` gives.
        Shards whose parts have equal row counts form a run (two at most
        when every split field has the same length), with one directory,
        ``like``'s when the run's keys equal it.  Each run is stored as
        read-only ``(shards, width)`` blocks of at most ``_BLOCK_BYTES``
        (or one shard), filled with one strided copy per field.
        """
        p = _BlockPacker(count)
        obj.pup(p)
        cuts = sorted({0, count}.union(len(f[1]) % count
                                       for f in p.fields if f[2]))
        self.blocks = []
        self._lists_built = None
        for first, end in zip(cuts, cuts[1:]):
            n = end - first
            keys, sources = [], []
            for name, arr, split, rtol, atol, skip in p.fields:
                shape = arr.shape
                if split:
                    lo = _split_start(len(arr), count, first)
                    shape = (_split_start(len(arr), count, first + 1) - lo,
                             *shape[1:])
                    arr = arr[lo:lo + shape[0] * n].reshape((n,) + shape)
                keys.append((name, _dtype_name(arr.dtype), shape,
                             math.prod(shape) * arr.itemsize, rtol, atol, skip))
                sources.append((arr, split))
            fields = like._directory(first) if like is not None else None
            if fields is None or not _shares_directory(keys, fields):
                fields = _build_directory(keys)
            width = sum(key[3] for key in keys)
            for lo, hi in _blocks(0, n, width):
                block = np.empty((hi - lo, width), dtype=np.uint8)
                offset = 0
                for key, (src, split) in zip(keys, sources):
                    np.copyto(_field_rows(block, offset, key[3], src.dtype,
                                          key[2]), src[lo:hi] if split else src)
                    offset += key[3]
                block.flags.writeable = False
                self.blocks.append((first + lo, first + hi, block, fields))

    def unpack(self, obj: Pupable) -> None:
        """Restore ``obj``, a replica, in place from every shard in one run
        of its description.

        Split fields are copied into the target's arrays, whose parts must
        have the stored shapes and dtypes (else :class:`PUPError`); a
        replicated field (the iteration counter) takes the last shard's
        value.
        """
        if self._extent():
            p = _BlockUnpacker(self)
            obj.pup(p)
            p.finish()


def unpack(obj: Pupable, state: PackedState) -> None:
    """Restore ``obj`` in place from a :class:`PackedState`."""
    p = UnpackingPUPer(state.buffer, state.fields)
    obj.pup(p)
    p.finish()


def sizeof(obj: Pupable) -> int:
    """Checkpoint footprint of ``obj`` in bytes."""
    p = _ViewPUPer()
    obj.pup(p)
    return sum(key[3] for key in p.keys)

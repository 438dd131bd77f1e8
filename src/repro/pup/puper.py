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
* **packing many shards** — :meth:`PackedShards.pack` runs one object's
  per-shard descriptions in one pass, each shard into its own read-only
  buffer, and decides directory sharing once for all shards;
* **unpacking** — restore state from a buffer (:class:`UnpackingPUPer`);
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
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.util.errors import ACRError


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


#: Shards packed smaller than this are joined as :class:`bytes` and viewed
#: as an array: one call instead of a view per field plus a concatenation,
#: which is most of the cost of packing a shard of a few fields.  Larger
#: shards are concatenated into arrays numpy allocates: on the checkpoint
#: workloads measured (shards of 150-380 KiB), buffers allocated as
#: ``bytes`` raised peak RSS by 4-7 % over the same buffers from numpy.
_JOIN_LIMIT = 1 << 16


class _ShardPUPer(PUPer):
    """The collecting PUPer of :meth:`PackedShards.pack`: the arrays and
    directory keys of one shard's fields, joined into the shard's buffer
    once the shard's description has run."""

    def __init__(self) -> None:
        self.arrays: list[np.ndarray] = []
        self.nbytes = 0
        #: Every shard's keys so far, in order (see :class:`_ViewPUPer`).
        self.keys: list[tuple] = []

    def _handle(self, name, arr, *, rtol, atol, skip_compare):
        self.arrays.append(arr)
        nbytes = arr.nbytes
        self.nbytes += nbytes
        self.keys.append((name, _dtype_name(arr.dtype), arr.shape, nbytes,
                          rtol, atol, skip_compare))
        return arr

    def join(self) -> np.ndarray:
        """The collected fields' bytes as one read-only buffer; resets the
        collected arrays."""
        arrays, nbytes = self.arrays, self.nbytes
        self.arrays, self.nbytes = [], 0
        if nbytes < _JOIN_LIMIT:
            try:
                data = b"".join(arrays)
            except TypeError:  # a field that is not C-contiguous
                data = b"".join([np.ascontiguousarray(a) for a in arrays])
            return np.frombuffer(data, dtype=np.uint8)
        buf = np.concatenate([np.ascontiguousarray(a).view(np.uint8).reshape(-1)
                              for a in arrays])
        buf.flags.writeable = False
        return buf


def buffers_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two packed buffers hold the same bytes."""
    if a.nbytes != b.nbytes:
        return False
    if a.nbytes < _JOIN_LIMIT:
        # One memcmp; numpy's per-call overhead dominates at this size.
        return a.tobytes() == b.tobytes()
    return bool(np.array_equal(a, b))


class UnpackingPUPer(PUPer):
    """Restores an object from a buffer produced by :func:`pack`.

    Fields are matched positionally *and* validated by name/dtype/shape, so a
    drifting pup description fails loudly rather than silently misreading.
    """

    is_unpacking = True

    def __init__(self, buffer: np.ndarray, fields: list[FieldRecord]):
        self.load(buffer, fields)

    def load(self, buffer: np.ndarray, fields: list[FieldRecord]) -> None:
        """Read the next description from ``buffer`` under ``fields``."""
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

    def copy(self) -> "PackedState":
        # Directories are never mutated once built, so copies share them.
        return PackedState(self.buffer.copy(), self.fields)


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


class PackedShards:
    """Shards ``0..n-1`` of one object, as :meth:`pack` packs them in one pass.

    ``buffers[r]`` is shard ``r``'s packed bytes and ``directories[r]`` its
    field directory; :meth:`shard` pairs them as a :class:`PackedState`.
    Every buffer is a read-only array that no one writes after it is
    stored, so copies of the lists share the buffers safely.  ``keys`` and
    ``ends`` are every shard's directory keys in order and the index in
    ``keys`` where each shard's keys end; the next :meth:`pack` ``like=``
    these shards compares them whole.  They are None once a shard was
    stored by :meth:`put`.  ``None`` in ``buffers`` marks a shard not
    stored yet.
    """

    __slots__ = ("buffers", "directories", "keys", "ends")

    def __init__(self) -> None:
        self.buffers: list[np.ndarray | None] = []
        self.directories: list[list[FieldRecord] | None] = []
        self.keys: list[tuple] | None = None
        self.ends: list[int] | None = None

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.buffers if b is not None)

    @property
    def ranks(self) -> list[int]:
        """The shards stored, in order."""
        return [r for r, b in enumerate(self.buffers) if b is not None]

    def complete(self, count: int) -> bool:
        """True when exactly shards ``0..count-1`` are stored."""
        return (len(self.buffers) == count
                and all(b is not None for b in self.buffers))

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

    def put(self, rank: int, state: PackedState) -> int:
        """Store a read-only copy of ``state``'s buffer as shard ``rank``;
        returns the byte size of the shard it replaces (0 if none)."""
        missing = rank + 1 - len(self.buffers)
        if missing > 0:
            self.buffers.extend([None] * missing)
            self.directories.extend([None] * missing)
        old = self.buffers[rank]
        buf = state.buffer.copy()
        buf.flags.writeable = False
        self.buffers[rank] = buf
        self.directories[rank] = state.fields
        self.keys = self.ends = None
        return old.nbytes if old is not None else 0

    def share(self, other: "PackedShards") -> None:
        """Hold ``other``'s shards: the buffers and directories by
        reference, in lists of this object's own."""
        self.buffers = list(other.buffers)
        self.directories = list(other.directories)
        self.keys, self.ends = other.keys, other.ends

    def pack(self, pup_shard: Callable[[PUPer, int], None], count: int,
             like: "PackedShards | None" = None) -> None:
        """Pack shards ``0..count-1`` of one object: ``pup_shard(p, rank)``
        runs shard ``rank``'s pup description.

        One collecting PUPer serves every shard; each shard's fields are
        copied into its own read-only buffer as soon as its description has
        run (one copy of the payload, as :func:`pack` makes).  Directory
        sharing with ``like`` — an earlier pack of the same object — is
        decided once: when every shard's keys equal ``like``'s (one list
        comparison), every directory and the key list itself are
        ``like``'s.  Otherwise each shard shares ``like``'s directory for
        its rank when :func:`pack` ``like=`` that shard would, and the
        directories built fresh are interned, so shards with equal keys
        share one.
        """
        p = _ShardPUPer()
        buffers, ends = [], []
        for rank in range(count):
            pup_shard(p, rank)
            buffers.append(p.join())
            ends.append(len(p.keys))
        keys = p.keys
        self.buffers = buffers
        if like is not None and keys == like.keys and ends == like.ends:
            self.directories = list(like.directories)
            self.keys, self.ends = like.keys, like.ends
            return
        prior = like.directories if like is not None else []
        interned: dict[tuple, list[FieldRecord]] = {}
        directories = []
        start = 0
        for rank, end in enumerate(ends):
            rank_keys = keys[start:end]
            fields = prior[rank] if rank < len(prior) else None
            if fields is None or not _shares_directory(rank_keys, fields):
                token = tuple(rank_keys)
                fields = interned.get(token)
                if fields is None:
                    fields = interned[token] = _build_directory(rank_keys)
            directories.append(fields)
            start = end
        self.directories = directories
        self.keys, self.ends = keys, ends

    def unpack(self, pup_shard: Callable[[PUPer, int], None]) -> None:
        """Restore every shard in place, in one pass over one PUPer."""
        p = UnpackingPUPer(np.empty(0, dtype=np.uint8), [])
        for rank in range(len(self.buffers)):
            state = self.shard(rank)
            p.load(state.buffer, state.fields)
            pup_shard(p, rank)
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

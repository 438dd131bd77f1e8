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
from typing import Any, Protocol, runtime_checkable

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

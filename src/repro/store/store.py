"""The content-addressed result store.

Layout under a cache root (default ``.repro-cache/`` or ``$REPRO_CACHE_DIR``)::

    objects/<aa>/<key>.json   # one record per cached cell, content-addressed
    index.jsonl               # append-only journal of completed writes

Each object file records its own key material, so the store is
self-describing: ``verify`` re-derives every address from the stored
material, and ``gc`` sweeps cells computed by a different source tree.
Writes are atomic (tmp file + rename) and journaled as one JSONL line per
completed cell — an interrupted campaign leaves only whole records behind,
which is exactly what makes sweeps resumable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.store.keys import code_fingerprint, material_key

#: On-disk record format version; bump on incompatible layout changes.
STORE_FORMAT = 1

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache root (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def _pid_alive(pid: int) -> bool:
    """Whether a process with id ``pid`` (> 0) exists on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # it exists, owned by another user
    return True


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` if set, else ``.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def fsync_dir(directory: Path) -> None:
    """Sync a directory entry; tolerated as best-effort (some filesystems
    refuse O_RDONLY fsync on directories)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: Path, payload: dict, *, fsync: bool = True) -> None:
    """Crash-consistent JSON write: same-directory temp file, fsynced before
    ``os.replace``, directory entry synced after.

    The store's object-write protocol, factored out so every durable record
    in the cache root (cells, job records, lease records) lands the same way.
    ``fsync=False`` skips both syncs for records whose loss a crash may
    tolerate (they still never appear torn — the rename is still atomic).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    if fsync:
        fsync_dir(path.parent)


def append_journal_line(path: Path, record: dict, *, fsync: bool = True) -> None:
    """Append one JSONL record as a single ``os.write`` of the encoded line.

    Appends of one small buffer land atomically, so a crash can tear at most
    the final line — which :func:`read_journal_lines` tolerates.  With
    ``fsync`` (the default) the line is durable before this returns;
    ``fsync=False`` is for high-rate journals of reconstructible events.
    """
    line = json.dumps(record, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = (line + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read_journal_lines(path: Path) -> tuple[list[dict], list[str]]:
    """Decoded JSONL records plus any problems found.

    A torn trailing line (interrupted append) is reported, not raised; whole
    lines before it are still returned.
    """
    entries: list[dict] = []
    problems: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError:
        return entries, problems
    # A well-formed journal ends with "\n", so the final split element is
    # empty; anything else is the torn tail of an interrupted append.
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            where = ("torn trailing line" if i == len(lines) - 1
                     else f"undecodable line {i + 1}")
            problems.append(f"{path.name}: {where} ({line[:40]!r}...)")
            continue
        entries.append(record)
    return entries, problems


@dataclass(frozen=True)
class StoreEntry:
    """One cached cell, as listed by :meth:`ResultStore.entries`."""

    key: str
    kind: str
    app: str
    seed: int | None
    code: str
    nbytes: int
    path: Path

    @property
    def stale(self) -> bool:
        """True when this cell was computed by a different source tree."""
        return self.code != code_fingerprint()


@dataclass
class GcResult:
    removed: int = 0
    kept: int = 0
    bytes_freed: int = 0
    removed_keys: list[str] = field(default_factory=list)
    #: Orphaned ``*.tmp.*`` files swept up (interrupted writes).
    tmp_removed: int = 0


class ResultStore:
    """Content-addressed persistence for campaign cells."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.objects_dir = self.root / "objects"
        self.index_path = self.root / "index.jsonl"

    # -- addressing -----------------------------------------------------------
    def object_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    # -- write ----------------------------------------------------------------
    def put(self, material: Mapping[str, Any], payload: dict,
            *, kind: str) -> str:
        """Persist one cell atomically; returns its content address.

        The record lands via a same-directory temp file that is fsynced
        *before* ``os.replace`` (otherwise a crash after the rename can leave
        the final name pointing at unwritten data), the directory entry is
        synced after it, and only then is one journal line appended to
        ``index.jsonl``.
        """
        key = material_key(material)
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "format": STORE_FORMAT,
            "key": key,
            "kind": kind,
            "material": dict(material),
            "payload": payload,
        }
        atomic_write_json(path, record)
        self._journal(key, kind, material)
        return key

    def _journal(self, key: str, kind: str, material: Mapping[str, Any]) -> None:
        append_journal_line(
            self.index_path,
            {
                "key": key,
                "kind": kind,
                "app": material.get("app"),
                "seed": material.get("seed"),
            },
        )

    def journal_entries(self) -> tuple[list[dict], list[str]]:
        """Decoded journal lines plus any problems found.

        A torn trailing line (interrupted append) is reported, not raised;
        whole lines before it are still returned.
        """
        return read_journal_lines(self.index_path)

    # -- read -----------------------------------------------------------------
    def get(self, material: Mapping[str, Any]) -> dict | None:
        """The payload cached for this key material, or None (miss)."""
        record = self._load_record(self.object_path(material_key(material)),
                                   quarantine=True)
        return None if record is None else record.get("payload")

    def has(self, material: Mapping[str, Any]) -> bool:
        return self.object_path(material_key(material)).is_file()

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def add_quarantine_artifact(self, name: str, payload: dict) -> Path:
        """Write a forensic artifact (e.g. a flight-recorder dump) into
        ``quarantine/`` and return its path.

        Quarantine is the store's "needs a human" shelf: undecodable objects
        are moved here, and chaos campaigns drop their flight recordings for
        failing seeds alongside them.  Artifacts are atomically replaced so a
        crashed writer never leaves a torn file, and ``verify`` reports them
        informationally instead of flagging them as corruption.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        path = self.quarantine_dir / name
        tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, path)
        return path

    def _quarantine(self, path: Path) -> None:
        """Move an undecodable object aside for post-mortem instead of leaving
        it to shadow its address (a re-run would hit the corrupt file again
        and read a miss forever)."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            pass

    def _load_record(self, path: Path, *, quarantine: bool = False) -> dict | None:
        """Load one object file; a missing or corrupt record reads as a miss.

        With ``quarantine=True`` an undecodable file is moved to
        ``quarantine/`` so the address becomes writable again (``gc`` passes
        False — it reclaims corrupt files itself).
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except OSError:
            return None
        except json.JSONDecodeError:
            if quarantine:
                self._quarantine(path)
            return None
        if not isinstance(record, dict) or record.get("format") != STORE_FORMAT:
            return None
        return record

    def _object_files(self) -> Iterator[Path]:
        if not self.objects_dir.is_dir():
            return
        yield from sorted(self.objects_dir.glob("*/*.json"))

    def entries(self) -> list[StoreEntry]:
        """Every readable cell in the store (corrupt files are skipped;
        ``verify`` reports them)."""
        out = []
        for path in self._object_files():
            record = self._load_record(path, quarantine=True)
            if record is None:
                continue
            material = record.get("material") or {}
            seed = material.get("seed")
            out.append(
                StoreEntry(
                    key=str(record.get("key", path.stem)),
                    kind=str(record.get("kind", "?")),
                    app=str(material.get("app", "?")),
                    seed=int(seed) if seed is not None else None,
                    code=str(material.get("code", "")),
                    nbytes=path.stat().st_size,
                    path=path,
                )
            )
        return out

    # -- maintenance ----------------------------------------------------------
    def sweep_dead_writers(self) -> int:
        """Remove the ``objects/*/*.tmp.<pid>`` files whose writer process is
        gone (killed between its write and its rename); returns how many.

        A temp file of a live process may still be renamed into place, so it
        is kept, as is one whose name carries no pid.
        """
        removed = 0
        if not self.objects_dir.is_dir():
            return removed
        for tmp in sorted(self.objects_dir.glob("*/*.tmp.*")):
            try:
                pid = int(tmp.name.rsplit(".", 1)[1])
            except ValueError:
                continue
            if pid > 0 and not _pid_alive(pid):
                try:
                    tmp.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def gc(self, *, wipe: bool = False) -> GcResult:
        """Remove stale cells (different code fingerprint); ``wipe`` removes
        everything.  Corrupt object files and orphaned temp files from
        interrupted writes are always removed."""
        result = GcResult()
        current = code_fingerprint()
        for path in list(self._object_files()):
            record = self._load_record(path)
            if record is None:
                stale = True  # corrupt: reclaim it
            else:
                material = record.get("material") or {}
                stale = wipe or material.get("code") != current
            if stale:
                result.removed += 1
                result.bytes_freed += path.stat().st_size
                result.removed_keys.append(path.stem)
                path.unlink()
            else:
                result.kept += 1
        if self.objects_dir.is_dir():
            for tmp in sorted(self.objects_dir.glob("*/*.tmp.*")):
                result.tmp_removed += 1
                result.bytes_freed += tmp.stat().st_size
                tmp.unlink()
        if wipe and self.index_path.is_file():
            self.index_path.unlink()
        return result

    def verify(self) -> list[str]:
        """Integrity problems, empty when the store is sound.

        Checks every object parses, carries the current format, sits at the
        address its key claims, and that the key is in fact the canonical
        digest of the stored material; also flags orphaned temp files,
        quarantined objects, and torn journal lines.
        """
        problems = []
        if self.objects_dir.is_dir():
            for tmp in sorted(self.objects_dir.glob("*/*.tmp.*")):
                problems.append(
                    f"{tmp.name}: orphaned temp file (interrupted write)")
        if self.quarantine_dir.is_dir():
            for q in sorted(self.quarantine_dir.iterdir()):
                # Flight-recorder dumps are deliberate forensic artifacts
                # (add_quarantine_artifact), not corruption.
                if q.name.startswith("flight-"):
                    continue
                problems.append(
                    f"quarantine/{q.name}: undecodable object set aside")
        _, journal_problems = self.journal_entries()
        problems.extend(journal_problems)
        for path in self._object_files():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    record = json.load(fh)
            except (OSError, json.JSONDecodeError) as err:
                problems.append(f"{path.name}: unreadable ({err})")
                continue
            if record.get("format") != STORE_FORMAT:
                problems.append(
                    f"{path.name}: format {record.get('format')!r} "
                    f"!= {STORE_FORMAT}"
                )
                continue
            key = record.get("key")
            if key != path.stem:
                problems.append(f"{path.name}: key field {key!r} != filename")
                continue
            material = record.get("material")
            if not isinstance(material, dict):
                problems.append(f"{path.name}: missing key material")
                continue
            derived = material_key(material)
            if derived != key:
                problems.append(
                    f"{path.name}: material hashes to {derived[:12]}..., "
                    f"not the stored key"
                )
        return problems

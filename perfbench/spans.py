"""Host-time spans around the public functions of each ACR layer.

The traced run installs a wrapper around every function in :data:`TARGETS`.
Each call records one span — name, start, end and the span that was open
when it began (its parent) — into flat arrays kept in memory; the benchmark
writes them out at exit.  A layer's *self time* is its spans' durations
minus the time their child spans cover, so the self times of all layers add
up to the time covered by outermost spans without counting anything twice.

Modules that import a function by name (``core.framework`` takes ``pack``,
``unpack``, ``detect_sdc`` and ``make_app`` that way) hold their own
reference to it, so a module-level target is patched under every name, in
every loaded ``repro`` module, that refers to the original object.
:meth:`SpanRecorder.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


def _nbytes(obj: Any) -> int:
    nbytes = getattr(obj, "nbytes", None)
    return int(nbytes) if nbytes is not None else len(obj)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` is ``func`` or ``Class.method``.

    ``before(args)`` / ``after(result)`` return an amount (bytes,
    iterations) summed per span name into :attr:`SpanRecorder.amounts`.
    """

    module: str
    attr: str
    before: Callable[[tuple], float] | None = None
    after: Callable[[Any], float] | None = None

    @property
    def name(self) -> str:
        return self.attr


_COST_METHODS = ("pack_time", "unpack_time", "compare_time", "checksum_time",
                 "exchange_time", "point_transfer_time", "checkpoint_breakdown",
                 "restart_breakdown", "sdc_rollback_time", "checksum_beneficial")

TARGETS: tuple[Target, ...] = (
    # runtime
    Target("repro.runtime.des", "Simulator.run"),
    Target("repro.runtime.des", "Simulator.schedule"),
    Target("repro.runtime.des", "Simulator.schedule_at"),
    Target("repro.runtime.des", "Simulator.schedule_periodic"),
    Target("repro.runtime.des", "Simulator.post"),
    Target("repro.runtime.messages", "Transport.send"),
    Target("repro.runtime.messages", "Transport.send_small"),
    Target("repro.runtime.messages", "Transport.send_stamps"),
    Target("repro.runtime.task", "Task.on_dep_message"),
    Target("repro.runtime.task", "Task.resume"),
    # core
    Target("repro.core.consensus", "ConsensusController.start_round"),
    Target("repro.core.checkpoint", "CheckpointStore.put_shard"),
    Target("repro.core.checkpoint", "CheckpointStore.commit"),
    Target("repro.core.checkpoint", "CheckpointStore.discard"),
    Target("repro.core.sdc", "detect_sdc"),
    # pup
    Target("repro.pup.puper", "pack", after=_nbytes),
    Target("repro.pup.puper", "unpack"),
    Target("repro.pup.checksum", "checkpoint_checksum",
           before=lambda args: _nbytes(args[0])),
    Target("repro.pup.checker", "compare_checkpoints"),
    Target("repro.pup.checker", "compare_checksums"),
    # apps
    Target("repro.apps.base", "ReplicaApp.advance_to",
           before=lambda args: args[1] - args[0].iteration),
    Target("repro.apps.registry", "make_app"),
    # storage
    Target("repro.storage.hierarchy", "DurableHierarchy.stage",
           before=lambda args: args[2].nbytes),
    Target("repro.storage.hierarchy", "DurableHierarchy.complete_inflight"),
    Target("repro.storage.hierarchy", "DurableHierarchy.persist_now"),
    # network
    Target("repro.network.allocation", "torus_for_nodes"),
    Target("repro.network.mapping", "build_mapping"),
    *(Target("repro.network.costs", f"CostModel.{m}") for m in _COST_METHODS),
    # faults
    Target("repro.faults.bitflip", "BitFlipInjector.inject"),
)


class SpanRecorder:
    """Records spans from wrapped functions into flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Per-span-name sums of the targets' ``before``/``after`` amounts.
        self.amounts: dict[str, float] = {}
        #: Span indices at which the caller marked a phase boundary.
        self.marks = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark(self) -> None:
        """Record a phase boundary at the next span index."""
        self.marks.append(len(self.start))

    # -- wrapping -----------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, *, before=None, after=None) -> Callable:
        ix = self.intern(name)
        name_ix, starts, ends, parents = self.name_ix, self.start, self.end, self.parent
        stack, amounts, clock = self._stack, self.amounts, time.perf_counter
        amounts.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                amounts[name] += before(args)
            span = len(starts)
            name_ix.append(ix)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                amounts[name] += after(result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, fn_name = target.attr.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                original = cls.__dict__[fn_name]
                self._patch(cls, fn_name, self.wrap(
                    target.name, original, before=target.before,
                    after=target.after))
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(target.name, original, before=target.before,
                                after=target.after)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original object the wrappers replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_ix": np.frombuffer(self.name_ix, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write the spans (and the name table) as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), marks=np.asarray(self.marks),
                 **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans from synchronous wrappers nest properly, so the direct children
    of a span cover disjoint parts of it.
    """
    duration = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested],
                        minlength=len(duration))
    return duration - child


@dataclass
class GroupStats:
    #: Outermost calls into the group (a call nested in another call of the
    #: same group is part of that call).
    calls: int
    #: Duration of those outermost calls, children from other groups included.
    inclusive_s: float
    #: Summed self time of every span in the group.
    self_s: float


class SpanTable:
    """Per-group statistics over one recorder's spans, split by phase."""

    def __init__(self, recorder: SpanRecorder, phase_mask: np.ndarray | None = None):
        arrays = recorder.arrays()
        self.names = recorder.names
        self.name_ix = arrays["name_ix"]
        self.parent = arrays["parent"]
        self.duration = arrays["end"] - arrays["start"]
        self.self_s = self_times(arrays["start"], arrays["end"], arrays["parent"])
        self.mask = (np.ones(len(self.duration), dtype=bool)
                     if phase_mask is None else phase_mask)

    def group(self, names) -> GroupStats:
        ids = [self.names.index(n) for n in names if n in self.names]
        member = np.isin(self.name_ix, ids)
        parent_member = np.zeros_like(member)
        nested = self.parent >= 0
        parent_member[nested] = member[self.parent[nested]]
        outer = member & ~parent_member & self.mask
        member &= self.mask
        return GroupStats(int(outer.sum()), float(self.duration[outer].sum()),
                          float(self.self_s[member].sum()))

    def self_total(self) -> float:
        """Self time of every span in the phase: the time they cover."""
        return float(self.self_s[self.mask].sum())


def phase_masks(recorder: SpanRecorder) -> tuple[np.ndarray, np.ndarray]:
    """(setup, run) span masks from marks laid down as ``setup, run`` pairs
    per cell; spans before the first mark belong to neither phase."""
    n = len(recorder.start)
    setup = np.zeros(n, dtype=bool)
    run = np.zeros(n, dtype=bool)
    marks = list(recorder.marks) + [n]
    for k in range(0, len(marks) - 1, 2):
        setup[marks[k]:marks[k + 1]] = True
        if k + 2 < len(marks):
            run[marks[k + 1]:marks[k + 2]] = True
    return setup, run


class GcMeter:
    """Host seconds and count of cyclic-GC collections while entered."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._t0: float | None = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1
            self._t0 = None

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

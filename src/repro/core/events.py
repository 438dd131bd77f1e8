"""Timeline recording — the raw material of Figure 12.

Every interesting moment of a run (checkpoints, failures, detections,
rollbacks, recoveries, interval adaptations) is recorded as a typed event so
benchmarks and tests can reconstruct exactly the paper's timeline view:
"Black lines show when failures are injected.  White lines indicate when
checkpoints are performed."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class TimelineKind(str, Enum):
    JOB_START = "job_start"
    CHECKPOINT_START = "checkpoint_start"
    CHECKPOINT_DONE = "checkpoint_done"
    SDC_INJECTED = "sdc_injected"
    SDC_DETECTED = "sdc_detected"
    HARD_FAULT_INJECTED = "hard_fault_injected"
    HARD_FAULT_DETECTED = "hard_fault_detected"
    ROLLBACK = "rollback"
    RECOVERY_DONE = "recovery_done"
    INTERVAL_ADAPTED = "interval_adapted"
    CONSENSUS_START = "consensus_start"
    CONSENSUS_DECIDED = "consensus_decided"
    #: Durable-tier events (only recorded when storage tiers are enabled, so
    #: default runs stay bit-identical to the committed golden digests).
    TIER_PERSIST = "tier_persist"
    TIER_RESTORE = "tier_restore"
    STORAGE_FAULT_INJECTED = "storage_fault_injected"
    JOB_END = "job_end"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TimelineEvent:
    time: float
    kind: TimelineKind
    detail: dict = field(default_factory=dict)


class Timeline:
    """Append-only, time-ordered record of one simulated run.

    The timeline doubles as the run's event bus: any number of subscribers
    (the chaos ``InvariantMonitor``, the telemetry tracer, tests) can observe
    each event as it is recorded via :meth:`subscribe` without clobbering
    each other.
    """

    def __init__(self) -> None:
        self.events: list[TimelineEvent] = []
        self._subscribers: list = []

    # -- subscription ---------------------------------------------------------
    def subscribe(self, fn) -> None:
        """Add ``fn(event)`` to be called with each freshly recorded event."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn) -> None:
        """Remove a subscriber (no-op if it was never subscribed)."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    def record(self, time: float, kind: TimelineKind, **detail) -> None:
        event = TimelineEvent(time, kind, detail)
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)

    def of_kind(self, kind: TimelineKind) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind is kind]

    def times_of(self, kind: TimelineKind) -> list[float]:
        return [e.time for e in self.events if e.kind is kind]

    # -- Figure-12 helpers --------------------------------------------------------
    def checkpoint_intervals(self) -> list[float]:
        """Gaps between consecutive completed checkpoints."""
        times = self.times_of(TimelineKind.CHECKPOINT_DONE)
        return [b - a for a, b in zip(times, times[1:])]

    #: render_ascii marker per event kind, in increasing visual precedence.
    _MARKERS = {
        TimelineKind.CHECKPOINT_DONE: "|",
        TimelineKind.RECOVERY_DONE: "R",
        TimelineKind.SDC_INJECTED: "s",
        TimelineKind.HARD_FAULT_INJECTED: "X",
    }
    _PRECEDENCE = {".": 0, "|": 1, "R": 2, "s": 3, "X": 4}
    LEGEND = ("legend: '|' checkpoint  's' sdc injected  'X' hard fault  "
              "'R' recovery done  '.' progress")

    def render_ascii(self, *, width: int = 100, horizon: float | None = None,
                     legend: bool = True) -> str:
        """A textual Figure 12 lane plus a legend line.

        SDC injections (``s``), hard faults (``X``), recoveries (``R``) and
        checkpoints (``|``) are distinct; when events collide in one column
        the rarer/graver marker wins (X > s > R > |).  A zero or negative
        ``horizon`` (e.g. a run that ended at t=0) degenerates safely to a
        single-column view instead of dividing by zero.
        """
        if not self.events:
            return "(empty timeline)"
        width = max(int(width), 1)
        end = horizon if horizon is not None else max(e.time for e in self.events)
        end = max(end, 1e-9)
        lane = ["."] * width

        for e in self.events:
            ch = self._MARKERS.get(e.kind)
            if ch is None:
                continue
            i = min(max(int(e.time / end * (width - 1)), 0), width - 1)
            if self._PRECEDENCE[ch] > self._PRECEDENCE[lane[i]]:
                lane[i] = ch
        line = "".join(lane)
        return f"{line}\n{self.LEGEND}" if legend else line

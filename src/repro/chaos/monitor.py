"""Runtime invariant checking for the ACR protocol state machine.

The recovery logic in :mod:`repro.core.framework` is a hand-written state
machine whose hardest paths — second failures mid-recovery, deaths during
asynchronous transfer, weak-pending cascades — encode the paper's §2.3
correctness claims.  The :class:`InvariantMonitor` hooks the framework's
phase transitions, its timeline, and the :class:`CheckpointStore`, and
asserts a catalog of machine-checkable invariants on every event, turning
any fuzzed fault schedule into an oracle-checked test case.

Invariant catalog
-----------------

``phase-legal``
    Phase transitions follow the documented state machine
    (idle → running → consensus → checkpointing → … → done) and nothing
    transitions out of ``done``.
``timeline-monotone``
    Timeline event timestamps never decrease.
``generation-complete``
    Every committed or installed checkpoint generation holds a shard for
    every rank (no partially packed generation ever becomes a rollback
    target).
``safe-sync``
    The safe generations of the two replicas agree in iteration at every
    phase boundary, except inside a weak-pending window where the healthy
    replica legitimately checkpoints alone (§2.3, Fig. 5d).
``spare-accounting``
    ``spare_nodes_used`` matches the pool drain exactly, never exceeds the
    detected-failure count, and every revival consumed a spare.
``quiescence``
    Entering ``done`` leaves no pending checkpoint timer, phase event,
    background transfer, or consensus watchdog on the event queue.
``liveness``
    A finished run either completed or aborted with a reason — it did not
    silently hang at the horizon.
``result-correct``
    A completed bounded run has ``result_correct=True`` and both safe
    generations at the iteration cap: ACR's end-to-end guarantee.  The one
    documented exception is an undetected SDC landing in a *vulnerability
    window* — a weak-pending solo checkpoint or a medium-recovery checkpoint
    commits without comparison (§2.3), exactly the exposure the Section-5
    model quantifies.
``storage-monotone``
    Generations persisted to one durable tier never go backwards in
    iteration (a later group write always stores a later-or-equal state)
    within one execution history.  A restart from a durable generation or
    from the launch state (``TIER_RESTORE``) begins a new history at the
    restored iteration: the tiers still hold the rejected newer copies,
    which no restore can ever serve again, and every later persist must be
    at or past the restart point.
``storage-integrity``
    A durable-tier restore never serves a torn or rotted copy: every shard
    of the generation handed back to recovery re-verifies against its
    recorded SHA-256, the generation is complete, and the returned bytes
    equal the stored bytes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.checkpoint import CheckpointGeneration
from repro.core.events import TimelineKind
from repro.util.errors import ACRError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.framework import ACR, RunReport


class InvariantViolation(ACRError):
    """An ACR protocol invariant failed during a monitored run."""

    def __init__(self, invariant: str, time: float, message: str):
        self.invariant = invariant
        self.time = time
        self.message = message
        super().__init__(f"[{invariant}] t={time:.6g}: {message}")


#: Legal protocol phase transitions.  Same-value assignments do not notify
#: (the framework's phase setter filters them), so self-loops are omitted.
LEGAL_TRANSITIONS: dict[str | None, frozenset[str]] = {
    None: frozenset({"idle"}),
    "idle": frozenset({"running"}),
    "running": frozenset({"consensus", "recovering", "done"}),
    "consensus": frozenset({"checkpointing", "running", "done"}),
    "checkpointing": frozenset({"running", "persisting", "recovering", "done"}),
    "persisting": frozenset({"running", "done"}),
    "recovering": frozenset({"running", "done"}),
    "done": frozenset(),
}


@dataclass
class InvariantMonitor:
    """Attachable runtime oracle for one :class:`~repro.core.framework.ACR` run.

    Usage::

        acr = ACR(...)
        monitor = InvariantMonitor().attach(acr)
        report = acr.run(...)
        monitor.final_check(report)   # raises InvariantViolation on failure

    Every check raises :class:`InvariantViolation` immediately (the DES
    propagates it out of ``run``), so the failing schedule, simulated time,
    and invariant name identify the defect precisely.
    """

    violations: list[InvariantViolation] = field(default_factory=list)
    checks_performed: int = 0
    transitions_seen: list[tuple[float, str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._acr: "ACR | None" = None
        self._last_event_time = 0.0
        #: Per-tier iteration high-water marks (storage-monotone).
        self._tier_last_iteration: dict[int, int] = {}

    # -- wiring --------------------------------------------------------------------
    def attach(self, acr: "ACR") -> "InvariantMonitor":
        if self._acr is not None:
            raise ACRError("InvariantMonitor is single-use; attach a fresh one")
        self._acr = acr
        acr.attach_observer(self)
        acr.store.observers.append(self)
        if getattr(acr, "storage", None) is not None:
            acr.storage.observers.append(self)
        # Subscribe (don't clobber): the telemetry tracer and this monitor
        # can both observe the same run's timeline.
        acr.timeline.subscribe(self._on_timeline_event)
        return self

    def _fail(self, invariant: str, message: str) -> None:
        violation = InvariantViolation(invariant, self._now(), message)
        self.violations.append(violation)
        raise violation

    def _now(self) -> float:
        return self._acr.sim.now if self._acr is not None else 0.0

    # -- framework hooks ---------------------------------------------------------------
    def on_phase_change(self, acr: "ACR", old: str | None, new: str) -> None:
        self.checks_performed += 1
        self.transitions_seen.append((acr.sim.now, str(old), new))
        if new not in LEGAL_TRANSITIONS.get(old, frozenset()):
            self._fail("phase-legal", f"illegal transition {old!r} -> {new!r}")
        self._check_safe_sync(acr)
        self._check_spares(acr)
        if new == "done":
            self._check_quiescence(acr)

    def _on_timeline_event(self, event) -> None:
        self.checks_performed += 1
        if event.time < self._last_event_time - 1e-12:
            self._fail("timeline-monotone",
                       f"{event.kind} recorded at {event.time} after an event "
                       f"at {self._last_event_time}")
        self._last_event_time = max(self._last_event_time, event.time)
        if event.kind is TimelineKind.TIER_RESTORE:
            # A tier miss restarts from the launch state (iteration 0).
            restart = event.detail["iteration"] if event.detail["hit"] else 0
            self._tier_last_iteration = dict.fromkeys(
                self._tier_last_iteration, restart)

    # -- store hooks ----------------------------------------------------------------
    def on_commit(self, replica: int, gen: CheckpointGeneration) -> None:
        self._check_generation("commit", replica, gen)

    def on_install(self, replica: int, gen: CheckpointGeneration) -> None:
        self._check_generation("install", replica, gen)

    def _check_generation(self, action: str, replica: int,
                          gen: CheckpointGeneration) -> None:
        self.checks_performed += 1
        acr = self._acr
        n = acr.store.nodes_per_replica if acr is not None else len(gen.ranks)
        if not gen.complete(n):
            self._fail("generation-complete",
                       f"{action} on replica {replica}: generation at iteration "
                       f"{gen.iteration} holds {len(gen.ranks)}/{n} shards")
        if gen.iteration < 0:
            self._fail("generation-complete",
                       f"{action} on replica {replica}: negative iteration "
                       f"{gen.iteration}")

    # -- durable-storage hooks -------------------------------------------------------
    def on_tier_persist(self, level: int, staged, torn: bool) -> None:
        """A group write landed on a tier (possibly torn under ``unsafe``)."""
        self.checks_performed += 1
        last = self._tier_last_iteration.get(level)
        if last is not None and staged.iteration < last:
            self._fail("storage-monotone",
                       f"tier {level} persisted iteration {staged.iteration} "
                       f"after iteration {last}")
        self._tier_last_iteration[level] = staged.iteration

    def on_tier_restore(self, level: int, staged, gen) -> None:
        """Recovery accepted a stored copy: re-verify it independently.

        The check recomputes every shard's SHA-256 from the stored bytes —
        never trusting the hierarchy's own ``torn`` bookkeeping — so a torn
        or rotted generation sneaking past the framework's guard fails here.
        """
        import hashlib

        self.checks_performed += 1
        acr = self._acr
        n = acr.store.nodes_per_replica if acr is not None else len(gen.ranks)
        if not staged.gen.complete(n) or not gen.complete(n):
            self._fail("storage-integrity",
                       f"tier {level} restore served an incomplete generation "
                       f"({len(staged.gen.ranks)}/{n} stored, "
                       f"{len(gen.ranks)}/{n} returned)")
        for rank in staged.gen.ranks:
            stored = staged.gen.buffers[rank].tobytes()
            if hashlib.sha256(stored).hexdigest() != staged.digests[rank]:
                self._fail("storage-integrity",
                           f"tier {level} restore served rank {rank} whose "
                           f"bytes do not match the recorded SHA-256 "
                           f"(torn={rank in staged.torn})")
            if gen.shard(rank).buffer.tobytes() != stored:
                self._fail("storage-integrity",
                           f"tier {level} restore returned rank {rank} bytes "
                           f"differing from the verified stored copy")

    # -- the individual invariants -------------------------------------------------------
    def _check_safe_sync(self, acr: "ACR") -> None:
        if acr._weak_pending is not None:
            return  # the healthy replica legitimately runs ahead (Fig. 5d)
        it0 = acr.store.safe_iteration(0)
        it1 = acr.store.safe_iteration(1)
        if it0 is not None and it1 is not None and it0 != it1:
            self._fail("safe-sync",
                       f"safe generations diverged outside a weak-pending "
                       f"window: replica 0 at iteration {it0}, replica 1 at "
                       f"{it1}")

    def _check_spares(self, acr: "ACR") -> None:
        used = acr.report.spare_nodes_used
        drained = acr.config.spare_nodes - acr._spares_left
        if used != drained:
            self._fail("spare-accounting",
                       f"spare_nodes_used={used} but pool drained {drained}")
        if used > acr.report.hard_detected:
            self._fail("spare-accounting",
                       f"{used} spares consumed for only "
                       f"{acr.report.hard_detected} detected failures")
        revivals = sum(acr.failures_survived)
        if revivals > used:
            self._fail("spare-accounting",
                       f"{revivals} revivals but only {used} spares consumed")

    def _check_quiescence(self, acr: "ACR") -> None:
        orphans = []
        if acr._checkpoint_timer is not None and acr._checkpoint_timer.pending:
            orphans.append("checkpoint timer")
        orphans.extend(f"phase event @{h.time:.6g}"
                       for h in acr._phase_events if h.pending)
        if acr._background_event is not None and acr._background_event.pending:
            orphans.append("background transfer")
        if acr._watchdog_event is not None and acr._watchdog_event.pending:
            orphans.append("consensus watchdog")
        if orphans:
            self._fail("quiescence",
                       f"timers still pending after done: {', '.join(orphans)}")

    # -- end-of-run verdict ------------------------------------------------------------
    def final_check(self, report: "RunReport") -> None:
        """Whole-run invariants, called after ``acr.run()`` returns."""
        acr = self._acr
        if acr is None:
            raise ACRError("monitor was never attached")
        self.checks_performed += 1
        if not report.completed and report.aborted_reason is None:
            self._fail("liveness",
                       f"run neither completed nor aborted by t="
                       f"{report.final_time:.6g} (phase {acr.phase!r}, "
                       f"{report.iterations_completed} iterations)")
        self._check_spares(acr)
        if report.completed:
            self._check_safe_sync(acr)
            cap = acr.config.total_iterations
            if cap is not None:
                for replica in (0, 1):
                    it = acr.store.safe_iteration(replica)
                    if it != cap:
                        self._fail("result-correct",
                                   f"completed run left replica {replica}'s "
                                   f"safe generation at iteration {it}, "
                                   f"cap {cap}")
                if (report.result_correct is not True
                        and not self._sdc_vulnerability_window(report)):
                    self._fail("result-correct",
                               f"completed run has result_correct="
                               f"{report.result_correct}")

    @staticmethod
    def _sdc_vulnerability_window(report: "RunReport") -> bool:
        """True when an incorrect result is the paper's *documented* exposure
        rather than a protocol bug: an injected SDC went undetected AND one
        replica's state later propagated to both without comparison (§2.3,
        §5).  Two paths do that — a weak-pending solo checkpoint (recorded
        as ``CHECKPOINT_DONE`` with ``compared=False``) and a medium
        recovery, whose immediate solo checkpoint is committed and installed
        for the crashed replica sight unseen."""
        if report.sdc_injected <= report.sdc_detected:
            return False
        injected = [e.time for e in report.timeline.events
                    if e.kind is TimelineKind.SDC_INJECTED]
        if not injected:
            return False
        first = min(injected)
        for e in report.timeline.events:
            if e.time < first:
                continue
            if (e.kind is TimelineKind.CHECKPOINT_DONE
                    and e.detail.get("compared") is False):
                return True
            if (e.kind is TimelineKind.RECOVERY_DONE
                    and e.detail.get("scheme") == "medium"):
                return True
        return False

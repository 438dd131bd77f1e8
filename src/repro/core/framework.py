"""The ACR framework: replication-enhanced automatic checkpoint/restart.

This wires every substrate together on the discrete-event runtime:

* two replicas of the application on a mapped torus partition (§2.1),
* buddy heartbeat failure detection (§6.1),
* consensus-driven coordinated checkpointing (§2.2, Fig. 3),
* SDC detection by buddy checkpoint comparison or Fletcher digests (§2.1, §4.2),
* the strong / medium / weak hard-error recovery schemes (§2.3, Figs. 4–5),
* adaptive checkpoint-period control from the live failure stream (§2.2),

and runs the whole thing under injected faults, producing a
:class:`RunReport` with the timeline that Figure 12 visualizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.apps.base import ReplicaApp
from repro.apps.registry import make_app
from repro.core.adaptive import AdaptiveIntervalController
from repro.core.checkpoint import CheckpointGeneration, CheckpointStore
from repro.core.config import ACRConfig
from repro.core.consensus import ConsensusController
from repro.core.events import Timeline, TimelineKind
from repro.core.prediction import PredictionTrace
from repro.core.sdc import detect_sdc
from repro.faults.bitflip import BitFlipInjector
from repro.faults.injector import (
    STORAGE_FAULT_KINDS,
    FaultEvent,
    FaultKind,
    InjectionPlan,
)
from repro.model.daly import daly_tau
from repro.model.schemes import ResilienceScheme
from repro.network.allocation import torus_for_nodes
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.series import NULL_SERIES
from repro.obs.tracer import NULL_TRACER
from repro.network.costs import CostModel, MachineConstants
from repro.network.mapping import build_mapping
# Checkpoints pack a whole generation at a time (CheckpointGeneration.pack);
# ``pack`` stays importable from this module for the benchmark's span
# wrappers (perfbench/spans.py), whose machinery test looks it up here.
from repro.pup.puper import pack  # noqa: F401
from repro.runtime.des import EventHandle, Simulator
from repro.runtime.heartbeat import HeartbeatMonitor
from repro.runtime.messages import Transport
from repro.runtime.ring import RingFastForward
from repro.runtime.soa import TaskTable
from repro.runtime.task import Task
from repro.storage.hierarchy import DurableHierarchy
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStream


@dataclass
class RunReport:
    """Outcome and accounting of one simulated ACR run."""

    final_time: float = 0.0
    completed: bool = False
    aborted_reason: str | None = None
    iterations_completed: int = 0
    checkpoints_completed: int = 0
    sdc_injected: int = 0
    sdc_detected: int = 0
    hard_injected: int = 0
    hard_detected: int = 0
    rollbacks: int = 0
    #: Dynamic checkpoints requested by failure-prediction alarms (§2.2).
    prediction_alarms: int = 0
    recoveries: dict[str, int] = field(default_factory=dict)
    spare_nodes_used: int = 0
    checkpoint_time: float = 0.0
    #: Time the application was actually blocked by checkpointing (equals
    #: checkpoint_time in blocking mode; only the local-pack time in
    #: asynchronous mode).
    checkpoint_blocking_time: float = 0.0
    recovery_time: float = 0.0
    #: High-water mark of in-memory checkpoint storage (bytes, both replicas).
    peak_checkpoint_memory: int = 0
    rework_iterations: int = 0
    digests: dict[int, np.ndarray] = field(default_factory=dict)
    reference_digest: np.ndarray | None = None
    result_correct: bool | None = None
    timeline: Timeline = field(default_factory=Timeline)
    interval_history: list[tuple[float, float]] = field(default_factory=list)
    #: Per-phase decomposition of the protocol time charged to
    #: ``checkpoint_time`` + ``recovery_time`` (keys like
    #: ``checkpoint.local`` or ``recovery.strong``); the values sum to
    #: exactly those two fields — the Fig. 8–10 breakdown for this run.
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Metrics-registry snapshot taken at finalization (None when telemetry
    #: was disabled); picklable, so campaigns can merge it across workers.
    metrics_snapshot: dict | None = None
    #: Time-series of metric snapshots over simulated time
    #: (:meth:`~repro.obs.series.TimeSeriesRecorder.to_dict` payload; None
    #: when streaming sampling was disabled).  Picklable and mergeable via
    #: :func:`~repro.obs.series.merge_series`.
    series: dict | None = None
    #: Durable-tier counters (``tier<level>.<name>`` plus hierarchy totals,
    #: see :meth:`~repro.storage.hierarchy.DurableHierarchy.counters`);
    #: empty when no storage tiers were configured.
    storage_counters: dict[str, float] = field(default_factory=dict)

    @property
    def overhead_fraction(self) -> float:
        busy = self.checkpoint_time + self.recovery_time
        return busy / self.final_time if self.final_time > 0 else 0.0

    @property
    def phase_time_sum(self) -> float:
        """Sum of the per-phase breakdown (== checkpoint_time + recovery_time)."""
        return sum(self.phase_times.values())


class ACR:
    """One replicated, fault-tolerant application run under ACR."""

    def __init__(
        self,
        app_name: str = "jacobi3d-charm",
        *,
        nodes_per_replica: int = 8,
        config: ACRConfig | None = None,
        machine: MachineConstants | None = None,
        injection_plan: InjectionPlan | None = None,
        prediction_trace: PredictionTrace | None = None,
        tracer=None,
        metrics=None,
        series=None,
        app_kwargs: dict | None = None,
    ):
        #: Telemetry: a no-op tracer/registry unless the caller opts in
        #: (``repro run --trace-out/--metrics-out``, campaigns, chaos runs).
        #: Neither ever schedules simulator events, so instrumented and
        #: un-instrumented runs are bit-identical executions.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Streaming time-series sampling (a TimeSeriesRecorder).  Unlike the
        #: tracer/registry this *does* arm an engine-level periodic timer when
        #: enabled, so a sampled run is a different — still deterministic —
        #: execution; the NULL_SERIES default arms nothing and stays
        #: bit-identical to an un-instrumented run.
        self.series = series if series is not None else NULL_SERIES
        if self.series.enabled and not self.metrics.enabled:
            # Sampling implies metrics: there is nothing to sample out of the
            # no-op registry, so opt the run into a real one.
            self.metrics = MetricsRegistry()
        #: Protocol observers (e.g. the chaos InvariantMonitor).  Each may
        #: implement ``on_phase_change(acr, old, new)``; attached before any
        #: phase assignment so even construction-time transitions are seen.
        self.observers: list = []
        self.config = config or ACRConfig()
        self.app_name = app_name
        self.n = int(nodes_per_replica)
        if self.n < 1:
            raise ConfigurationError("nodes_per_replica must be >= 1")

        # --- machine & costs ---------------------------------------------------
        self.torus = torus_for_nodes(2 * self.n)
        self.mapping = build_mapping(self.torus, self.config.mapping,
                                     chunk=self.config.mapping_chunk)
        self.cost = CostModel(machine or MachineConstants())

        # --- runtime -----------------------------------------------------------
        self.sim = Simulator()
        self.transport = Transport(self.sim)
        # A node is its id, ``replica * n + rank`` (see _node_id): its
        # liveness is ``transport.alive``, its tasks are task-table rows.
        #: Spare-node replacements each node id has been through.
        self.failures_survived = [0] * (2 * self.n)
        self.buddy_of: dict[int, int] = {}
        for rank in range(self.n):
            a, b = self._node_id(0, rank), self._node_id(1, rank)
            self.buddy_of[a] = b
            self.buddy_of[b] = a

        # --- applications (same seed => bit-identical replicas) ------------------
        #: Extra app constructor arguments; :meth:`_finalize` builds its
        #: scratch and reference apps with them too.
        self.app_kwargs = dict(app_kwargs or {})
        first = self._make_app()
        self.apps: dict[int, ReplicaApp] = {0: first, 1: first.clone()}
        self.profile = self.apps[0].checkpoint_profile()

        # --- tasks: a ring per replica, dependency-gated -------------------------
        # One table holds every task, replica-major: node ``nid`` hosts rows
        # ``[nid*tpn, (nid+1)*tpn)``, so replica r's ring is rows
        # ``[r*n*tpn, (r+1)*n*tpn)``, and one iteration-time callable serves
        # each replica.  No per-task or per-node object is built (see
        # runtime/soa.py).
        self.task_table = TaskTable(
            self.sim, self.transport, 2 * self.n,
            rings=2, tasks_per_node=self.config.tasks_per_node,
            iteration_time=[self.apps[r].iteration_time for r in (0, 1)])

        # --- protocol machinery ---------------------------------------------------
        self.consensus = ConsensusController(self.task_table)
        self.consensus.tracer = self.tracer
        self.consensus.metrics = self.metrics
        self.heartbeat = HeartbeatMonitor(
            self.transport,
            range(2 * self.n),
            self.buddy_of,
            interval=self.config.heartbeat_interval,
            timeout_factor=self.config.heartbeat_timeout_factor,
            on_death=self._on_death_detected,
        )
        self.store = CheckpointStore(self.n)
        #: Durable tiers behind the in-memory double checkpoint; None keeps
        #: the paper's pure level-1 protocol (and the golden digests) intact.
        self.storage: DurableHierarchy | None = None
        if self.config.storage_tiers:
            self.storage = DurableHierarchy(
                self.config.storage_tiers, self.n, seed=self.config.seed)
        self.adaptive: AdaptiveIntervalController | None = None
        if self.config.adaptive:
            delta = self.cost.checkpoint_breakdown(
                self.profile, self.mapping, use_checksum=self.config.use_checksum
            ).total
            self.adaptive = AdaptiveIntervalController(
                delta=delta,
                initial_interval=self.config.adaptive_initial_interval,
                min_interval=self.config.adaptive_min_interval,
                max_interval=self.config.adaptive_max_interval,
            )

        # --- faults -----------------------------------------------------------------
        self.plan = injection_plan or InjectionPlan()
        self.prediction_trace = prediction_trace
        self.bitflip = BitFlipInjector(RngStream(self.config.seed, "acr/bitflip"))

        # --- run state --------------------------------------------------------------
        self.timeline = Timeline()
        self.report = RunReport(timeline=self.timeline)
        # idle|running|consensus|checkpointing|persisting|recovering|done
        self.phase = "idle"
        self._checkpoint_timer: EventHandle | None = None
        self._series_timer = None
        self._phase_events: list[EventHandle] = []
        self._background_event: EventHandle | None = None
        self._watchdog_event: EventHandle | None = None
        self._checkpoint_deferred = False
        self._final_requested = False
        #: The crashed node waiting for its weak recovery.
        self._weak_pending: int | None = None
        self._initial_gen: dict[int, CheckpointGeneration] = {}
        self._spares_left = self.config.spare_nodes
        self._handled_deaths: set[tuple[int, int]] = set()
        self._sdc_rollback_streak = 0
        self._started = False
        #: Lineage token per replica: two replicas with the same token at the
        #: same ``iteration`` hold bitwise-identical state, so one can copy
        #: the other's arrays instead of re-running the kernel (see
        #: docs/protocols.md, "Replica lineage").  Every SDC injection forks
        #: the victim's token; restoring a generation adopts its token.
        self._lineage = [0, 0]
        self._lineage_ids = itertools.count(1)

        # --- telemetry span bookkeeping ---------------------------------------------
        self._span_checkpoint = None
        #: The open recovery span (an SDC rollback's too): at most one
        #: recovery is in flight at a time.
        self._span_recovery = None
        self._rework_span = None
        self._pending_rework_from = 0
        self._rework_target: int | None = None
        #: Per-replica task-ring fast-forward engines (built in start(); see
        #: docs/protocols.md §7).
        self._rings: dict[int, RingFastForward] = {}
        self._last_ckpt_breakdown = None
        if self.tracer.enabled:
            # Mirror every timeline event as a trace instant so the exported
            # trace is a self-contained flight recording of the run.
            self.timeline.subscribe(self._tracer_instant)

    def _tracer_instant(self, event) -> None:
        self.tracer.instant(f"timeline.{event.kind.value}", event.time,
                            **event.detail)

    def _charge(self, phase: str, duration: float, bucket: str) -> None:
        """Account protocol time to a named phase.

        Every second of ``checkpoint_time`` and ``recovery_time`` flows
        through here, so ``report.phase_times`` decomposes those two totals
        exactly; the metrics histogram gets the same observation.
        """
        if duration == 0.0:
            return
        rep = self.report
        rep.phase_times[phase] = rep.phase_times.get(phase, 0.0) + duration
        if bucket == "checkpoint":
            rep.checkpoint_time += duration
        else:
            rep.recovery_time += duration
        self.metrics.histogram("phase.duration_s", phase=phase).observe(duration)

    # -- rework span tracking ------------------------------------------------------------
    # The target is tracked with telemetry on or off, so the instant the
    # rings report it is posted either way and a traced run processes the
    # same events as an untraced one; only the span itself is tracer-only.
    def _note_rework_target(self) -> None:
        """Remember the pre-rollback progress so the re-execution back to it
        can be traced as a ``rework`` span."""
        self._advance_rings()
        self._pending_rework_from = self.task_table.min_progress()

    def _begin_rework_span(self) -> None:
        target = self._pending_rework_from
        self._advance_rings()
        base = self.task_table.min_progress()
        if self._rework_target is not None:
            # A second rollback landed before the first rework finished.
            self.tracer.end(self._rework_span, self.sim.now, interrupted=True)
            self._rework_span = None
            self._rework_target = None
        if target > base:
            self._rework_span = self.tracer.begin(
                "rework", self.sim.now, from_iteration=base,
                to_iteration=target)
            self._rework_target = target
        self._watch_rework()

    def _check_rework_done(self) -> None:
        if self._rework_target is None:
            return
        if not self._rings_reached(self._rework_target):
            return
        if self.task_table.all_at_least(self._rework_target):
            self.tracer.end(self._rework_span, self.sim.now,
                            iterations=self._rework_target)
            self._rework_span = None
            self._rework_target = None
            self._watch_rework()

    # -- task-ring fast-forward (docs/protocols.md §7) ------------------------------------
    def _build_rings(self) -> None:
        ids = np.arange(self.task_table.size, dtype=np.int64)
        for replica in (0, 1):
            self._rings[replica] = RingFastForward(
                self.task_table, replica, sim=self.sim,
                transport=self.transport,
                row_times=partial(self.apps[replica].iteration_times,
                                  task_ids=ids),
                # A ring at a watched level (the cap, the rework target)
                # runs the same check as a task completion.
                on_output=partial(self._on_node_progress, None))
        self.consensus.rings = list(self._rings.values())
        self.sim.return_hooks.append(self._refresh_rings)

    def _advance_rings(self) -> None:
        """Bring the progress array up to now for every open window."""
        for ring in self._rings.values():
            if ring.open:
                ring.advance()

    def _rings_reached(self, level: int) -> bool:
        """False when some open window is still below ``level``; otherwise
        brings the progress array up to now (so the caller's read of it is
        exact) and returns True.  The early out keeps the per-completion
        checks of event-mode tasks from touching the arrays."""
        for ring in self._rings.values():
            if ring.open and not ring.reached(level):
                return False
        self._advance_rings()
        return True

    def _refresh_rings(self) -> None:
        """Make tasks, nodes and transport counters exact as of now (a read:
        open windows and an evaluated consensus round stay as they are)."""
        for ring in self._rings.values():
            ring.refresh()
        self.consensus.engine.flush()

    def _watch_rework(self) -> None:
        for ring in self._rings.values():
            ring.watch_rework(self._rework_target)

    def _resume_replica(self, replica: int) -> None:
        """Release every task of a replica (checkpoint done): hand the ring
        to its engine when it can be fast-forwarded, else resume each task
        and let the engine adopt the ring as the tasks left it."""
        ring = self._rings.get(replica)
        if ring is not None and ring.resume():
            return
        table = self.task_table
        for row in table.ring_rows(replica):
            table.task(row).resume()
        if ring is not None:
            ring.adopt()

    # -- observable protocol phase ------------------------------------------------------
    @property
    def phase(self) -> str:
        return self._phase

    @phase.setter
    def phase(self, new: str) -> None:
        old = getattr(self, "_phase", None)
        self._phase = new
        if old != new:
            for obs in self.observers:
                hook = getattr(obs, "on_phase_change", None)
                if hook is not None:
                    hook(self, old, new)

    def attach_observer(self, observer) -> None:
        """Register a protocol observer (phase transitions, via the setter)."""
        self.observers.append(observer)

    # -- identifiers ------------------------------------------------------------------
    def _node_id(self, replica: int, rank: int) -> int:
        return replica * self.n + rank

    def _revive(self, nid: int) -> None:
        """A spare node takes over ``nid``'s identity after recovery."""
        self.failures_survived[nid] += 1
        self.transport.set_alive(nid, True)
        self.heartbeat.notify_revived(nid)

    def _replica_scope(self, replica: int) -> list[int]:
        return list(range(replica * self.n, (replica + 1) * self.n))

    @property
    def tasks(self) -> dict[int, list[Task]]:
        """Views of every task, by replica, in task-id order (built on
        first read, for inspection; the engine reads :attr:`task_table`)."""
        return {r: self.task_table.tasks(r) for r in (0, 1)}

    # -- lifecycle ----------------------------------------------------------------------
    def start(self) -> None:
        """Arm the job: initial checkpoints, heartbeats, faults, first timer."""
        if self._started:
            raise SimulationError("ACR job already started")
        self._started = True
        self.phase = "running"
        self.timeline.record(0.0, TimelineKind.JOB_START,
                             app=self.app_name, scheme=str(self.config.scheme))
        # Generation zero: the launch state, always available for "restart
        # from the beginning of the execution" (§2.3).
        # Replica 1 packs like its buddy's generation, so buddies share one
        # set of field directories from the start (and every later pack
        # keeps sharing it).
        for replica in (0, 1):
            gen = CheckpointGeneration(iteration=0,
                                       lineage=self._lineage[replica])
            gen.pack(self.apps[replica], self.n,
                     like=self._initial_gen[0] if replica else None)
            self._initial_gen[replica] = gen
            self.store.install_safe(replica, self.store.clone_generation(gen))
        # Iteration cap for bounded runs.
        if self.config.total_iterations is not None:
            self.task_table.set_cap(self.config.total_iterations)
        self._build_rings()
        table = self.task_table
        table.on_progress = self._on_node_progress
        for replica in (0, 1):
            if not self._rings[replica].open_start():
                for row in table.ring_rows(replica):
                    table.start(row)
        self.heartbeat.start()
        for event in self.plan.events:
            self.sim.schedule_at(event.time, self._inject_fault, event)
        if self.prediction_trace is not None:
            for alarm in self.prediction_trace.alarms:
                self.sim.schedule_at(alarm.time, self._on_prediction_alarm)
        if self.series.enabled:
            self._series_timer = self.sim.schedule_periodic(
                self.series.interval, self._sample_series)
        self._arm_checkpoint_timer()

    def _sample_series(self) -> None:
        """Periodic streaming-telemetry tick: snapshot the registry into the
        time-series recorder at the current simulated time."""
        self.series.sample(self.sim.now, self.metrics_snapshot())

    def _on_prediction_alarm(self) -> None:
        """A failure-prediction alarm: checkpoint right now so the predicted
        fault loses only the prediction lead time of work (§2.2)."""
        if self.phase == "done":
            return
        self.report.prediction_alarms += 1
        self._begin_checkpoint("predicted")

    def run(self, until: float | None = None, max_events: int | None = None) -> RunReport:
        """Run the job to completion (or the time horizon) and report."""
        if not self._started:
            self.start()
        self.sim.run(until=until, max_events=max_events)
        return self._finalize()

    # -- fault injection ---------------------------------------------------------------
    def _inject_fault(self, event: FaultEvent) -> None:
        if self.phase == "done":
            return
        if event.kind in STORAGE_FAULT_KINDS:
            self.timeline.record(
                self.sim.now, TimelineKind.STORAGE_FAULT_INJECTED,
                fault=str(event.kind), level=event.level)
            if self.storage is None:
                return  # no durable tiers configured; nothing to hit
            if event.kind is FaultKind.TORN_WRITE:
                self.storage.arm_torn_write(event.level)
            elif event.kind is FaultKind.BIT_ROT:
                self.storage.inject_bit_rot(event.level, self.sim.now)
            else:
                self.storage.arm_write_spike(event.level)
            return
        if event.kind is FaultKind.SDC:
            self.report.sdc_injected += 1
            self.timeline.record(self.sim.now, TimelineKind.SDC_INJECTED,
                                 replica=event.replica, rank=event.node_id)
            self.bitflip.inject(self.apps[event.replica].shard(event.node_id))
            self._lineage[event.replica] = next(self._lineage_ids)
        else:
            nid = self._node_id(event.replica, event.node_id)
            if not self.transport.alive[nid]:
                return  # already down; a dead node cannot die twice
            self.report.hard_injected += 1
            self.timeline.record(self.sim.now, TimelineKind.HARD_FAULT_INJECTED,
                                 replica=event.replica, rank=event.node_id)
            self.task_table.kill(nid)

    # -- periodic checkpoint scheduling ------------------------------------------------
    def _current_interval(self) -> float:
        if self.adaptive is not None:
            # The controller's interval_history is the single source of truth
            # for adapted periods; _finalize publishes it on the report, and
            # the timeline's INTERVAL_ADAPTED events mirror it one-for-one.
            interval = self.adaptive.next_interval(self.sim.now)
            self.timeline.record(self.sim.now, TimelineKind.INTERVAL_ADAPTED,
                                 interval=interval)
            return interval
        return self.config.checkpoint_interval

    def _arm_checkpoint_timer(self) -> None:
        if self._checkpoint_timer is not None:
            self._checkpoint_timer.cancel()
        self._checkpoint_timer = self.sim.schedule(
            self._current_interval(), self._begin_checkpoint, "periodic"
        )

    def _begin_checkpoint(self, reason: str) -> None:
        if self.phase == "done":
            return
        if self.phase != "running":
            self._checkpoint_deferred = True
            return
        if self._background_event is not None and self._background_event.pending:
            # An asynchronous transfer/compare is still in flight; one
            # checkpoint generation at a time.
            self._checkpoint_deferred = True
            return
        self.phase = "consensus"
        if self._checkpoint_timer is not None:
            self._checkpoint_timer.cancel()
            self._checkpoint_timer = None
        # A crashed replica waiting for weak recovery cannot participate: the
        # healthy replica checkpoints alone and ships the result (Fig. 5d).
        # Any death cancels the checkpoint, so this choice holds to its end.
        replicas = ((1 - self._weak_pending // self.n,)
                    if self._weak_pending is not None else (0, 1))
        scope = [nid for r in replicas for nid in self._replica_scope(r)]
        self.timeline.record(self.sim.now, TimelineKind.CONSENSUS_START,
                             reason=reason, scope=len(scope))
        self._span_checkpoint = self.tracer.begin(
            "checkpoint", self.sim.now, reason=reason,
            solo=len(replicas) == 1)
        self._start_consensus(scope, partial(self._on_consensus_done, replicas),
                              span_parent=self._span_checkpoint)

    def _start_consensus(self, scope: list[int], on_complete,
                         span_parent=None) -> None:
        """Start a consensus round with a stall watchdog.

        Buddy heartbeats miss the case where a node *and* its buddy are both
        down (nobody monitors it); in a real machine the collective timeout
        surfaces such deaths.  The watchdog models that: if the round is
        still pending after several heartbeat timeouts, any dead node in
        scope is declared failed.
        """
        rid = self.consensus.start_round(scope, on_complete,
                                         span_parent=span_parent)
        timeout = 3.0 * (self.config.heartbeat_timeout_factor
                         * self.config.heartbeat_interval) + 1.0
        if self._watchdog_event is not None:
            self._watchdog_event.cancel()
        self._watchdog_event = self.sim.schedule(
            timeout, self._consensus_watchdog, rid, timeout)

    def _live_detector(self, prefer: list[int] | None = None) -> int | None:
        """A live node to attribute a detection to: in ``prefer`` scope first,
        then anywhere in the machine."""
        for nid in prefer or ():
            if self.transport.alive[nid]:
                return nid
        for nid in range(2 * self.n):
            if self.transport.alive[nid]:
                return nid
        return None

    def _consensus_watchdog(self, rid: int, timeout: float) -> None:
        self._watchdog_event = None
        if self.phase == "done":
            return
        if not self.consensus.active or self.consensus.round_id != rid:
            return
        alive = self.transport.alive
        dead = [nid for nid in self.consensus.scope if not alive[nid]]
        if dead:
            detector = self._live_detector(prefer=self.consensus.scope)
            if detector is None:
                self._abort("no live node left to detect consensus stall")
                return
            # Every dead node in scope stalls the round, and a node that was
            # "handled" but is still dead this long after the round started
            # had its recovery lost; clear the dedup entries so the detection
            # path runs again for each of them.
            for nid in dead:
                if self.phase == "done":
                    return
                if not alive[nid]:  # an earlier victim's recovery may have revived it
                    self._handled_deaths.discard(
                        (nid, self.failures_survived[nid]))
                    self._on_death_detected(detector, nid)
            return
        # No dead node: the round is just slow (tasks draining); keep watching.
        self._watchdog_event = self.sim.schedule(
            timeout, self._consensus_watchdog, rid, timeout)

    # -- checkpoint phases ----------------------------------------------------------------
    def _on_consensus_done(self, replicas: tuple[int, ...], round_id: int,
                           iteration: int) -> None:
        self.phase = "checkpointing"
        self._consensus_decided(replicas, iteration,
                                self._do_pack, iteration, replicas)

    def _consensus_decided(self, replicas: tuple[int, ...], iteration: int,
                           packed, *args) -> None:
        """Bring ``replicas`` to the decided ``iteration`` and call
        ``packed(*args)`` once their local pack has elapsed."""
        self.timeline.record(self.sim.now, TimelineKind.CONSENSUS_DECIDED,
                             iteration=iteration)
        for replica in replicas:
            other = self.apps[1 - replica]
            if (len(replicas) == 2 and other.iteration == iteration
                    and self.apps[replica].iteration < iteration
                    and self._lineage[0] == self._lineage[1]):
                self._copy_replica_state(replica, 1 - replica)
            else:
                self.apps[replica].advance_to(iteration)
        pack_t = self.cost.pack_time(self.profile)
        self._phase_events = [self.sim.schedule(pack_t, packed, *args)]

    def _pack_candidates(self, iteration: int, replicas: tuple[int, ...],
                         parent) -> float:
        """Pack each replica's state as its candidate generation (like its
        safe generation, so the field directories stay shared); traces the
        pack that just elapsed under ``parent`` and returns its modeled
        duration."""
        pack_t = self.cost.pack_time(self.profile)
        self.tracer.emit("checkpoint.pack", self.sim.now - pack_t,
                         self.sim.now, parent=parent,
                         iteration=iteration, replicas=len(replicas))
        for replica in replicas:
            gen = CheckpointGeneration(iteration, wallclock=self.sim.now,
                                       lineage=self._lineage[replica])
            gen.pack(self.apps[replica], self.n,
                     like=self.store.safe(replica))
            self.store.put_candidate(replica, gen)
        return pack_t

    def _do_pack(self, iteration: int, replicas: tuple[int, ...]) -> None:
        self._pack_candidates(iteration, replicas, self._span_checkpoint)
        breakdown = self.cost.checkpoint_breakdown(
            self.profile, self.mapping, use_checksum=self.config.use_checksum
        )
        self._last_ckpt_breakdown = breakdown
        self._charge("checkpoint.local", breakdown.local, "checkpoint")
        self._charge("checkpoint.transfer", breakdown.transfer, "checkpoint")
        self._charge("checkpoint.compare", breakdown.compare, "checkpoint")
        remaining = breakdown.transfer + breakdown.compare
        if self.config.async_checkpointing:
            # Semi-blocking mode: the application only blocked for the local
            # snapshot; transfer and comparison overlap forward execution.
            self.report.checkpoint_blocking_time += breakdown.local
            self.phase = "running"
            for replica in replicas:
                self._resume_replica(replica)
            self._background_event = self.sim.schedule(
                remaining, self._finish_checkpoint, iteration, replicas)
            self._phase_events = []
            return
        self.report.checkpoint_blocking_time += breakdown.total
        self._phase_events = [
            self.sim.schedule(remaining, self._finish_checkpoint, iteration, replicas)
        ]

    def _finish_checkpoint(self, iteration: int, replicas: tuple[int, ...]) -> None:
        self._phase_events = []
        self._background_event = None
        breakdown = self._last_ckpt_breakdown
        if breakdown is not None:
            remaining = breakdown.transfer + breakdown.compare
            t0 = self.sim.now - remaining
            background = self.config.async_checkpointing
            self.tracer.emit(
                "checkpoint.transfer", t0, t0 + breakdown.transfer,
                parent=self._span_checkpoint, iteration=iteration,
                background=background, track=1 if background else 0)
            self.tracer.emit(
                "checkpoint.compare", t0 + breakdown.transfer, self.sim.now,
                parent=self._span_checkpoint, iteration=iteration,
                solo=len(replicas) != 2, background=background,
                track=1 if background else 0)
            self._last_ckpt_breakdown = None
        if len(replicas) == 2:
            result = detect_sdc(
                self.store.candidate(0),
                self.store.candidate(1),
                use_checksum=self.config.use_checksum,
                rtol=self.config.compare_rtol,
            )
            if not result.clean:
                self.report.sdc_detected += 1
                self.timeline.record(self.sim.now, TimelineKind.SDC_DETECTED,
                                     ranks=sorted(result.mismatched_ranks),
                                     iteration=iteration)
                if self.adaptive is not None:
                    self.adaptive.record_failure(self.sim.now)
                self.metrics.counter("acr.sdc_comparison_failures").inc()
                self._end_checkpoint_span(sdc_detected=True)
                self.store.discard(0)
                self.store.discard(1)
                self._rollback_both()
                return
        # The candidate and safe generations briefly coexist: the in-memory
        # double-checkpoint high-water mark.
        self.report.peak_checkpoint_memory = max(
            self.report.peak_checkpoint_memory, self.store.memory_bytes())
        committed = {r: self.store.commit(r) for r in replicas}
        self._sdc_rollback_streak = 0
        self.report.checkpoints_completed += 1
        # compared=False marks a solo (weak-pending) checkpoint: with only
        # one replica participating there is no SDC comparison — the §2.3
        # vulnerability window the Section-5 model quantifies.
        self.timeline.record(self.sim.now, TimelineKind.CHECKPOINT_DONE,
                             iteration=iteration,
                             compared=len(replicas) == 2)
        self._end_checkpoint_span(iteration=iteration)
        self.metrics.gauge("store.memory_bytes").set(self.store.memory_bytes())
        if self.storage is not None and len(replicas) == 2:
            # Only compared generations flow to the durable tiers: a solo
            # (weak-pending) checkpoint skipped SDC comparison and must not
            # become a trusted durable copy.
            persist_s = self._begin_tier_persist(committed[replicas[0]])
            if persist_s > 0.0:
                if self.config.async_checkpointing:
                    # Tasks resumed back in _do_pack; the tier group write
                    # streams in the background like the transfer did.
                    self._background_event = self.sim.schedule(
                        persist_s, self._finish_tier_persist)
                    return
                self.report.checkpoint_blocking_time += persist_s
                self.phase = "persisting"
                self._phase_events = [
                    self.sim.schedule(persist_s, self._finish_tier_persist)
                ]
                return
        if len(replicas) == 1:
            self._start_weak_shipment(committed[replicas[0]])
            # The healthy replica resumes immediately: zero-overhead recovery.
            self._resume_replica(replicas[0])
            return
        self.phase = "running"
        for replica in (0, 1):
            self._resume_replica(replica)
        self._after_activity()

    # -- durable tiers (level 2/3 behind the in-memory double checkpoint) -----------------
    def _tier_interval(self, spec, nbytes: int) -> float:
        """Current persist period for one durable tier: pinned by the spec,
        adapted from the live failure fit, or the static Daly plan at the
        tier's assumed MTBF."""
        if spec.interval is not None:
            return spec.interval
        delta = spec.write_time(nbytes, self.n)
        fallback = daly_tau(max(delta, 1e-6), spec.mtbf_assumed)
        if self.adaptive is not None:
            return self.adaptive.tier_interval(
                self.sim.now, level=spec.level, delta=delta,
                fallback=fallback, failure_share=spec.failure_share)
        return fallback

    def _begin_tier_persist(self, gen: CheckpointGeneration) -> float:
        """Stage the freshly committed generation on every due tier; returns
        the total modeled group-write duration (0.0 when nothing is due)."""
        nbytes = gen.nbytes
        due = self.storage.due_levels(
            self.sim.now, lambda spec: self._tier_interval(spec, nbytes))
        total = 0.0
        for level in due:
            duration = self.storage.stage(level, gen, self.sim.now)
            self._charge(f"checkpoint.tier{level}-persist", duration,
                         "checkpoint")
            total += duration
        return total

    def _finish_tier_persist(self) -> None:
        self._phase_events = []
        self._background_event = None
        for outcome in self.storage.complete_inflight(self.sim.now):
            self.timeline.record(self.sim.now, TimelineKind.TIER_PERSIST,
                                 **outcome)
        if self.phase == "persisting":
            self.phase = "running"
            for replica in (0, 1):
                self._resume_replica(replica)
        self._after_activity()

    def _restore_from_storage(self) -> CheckpointGeneration | None:
        """Deepest-fallback restore: the newest intact generation anywhere in
        the durable hierarchy, or None (no tiers / nothing intact).

        The tier read is charged to ``recovery_time`` but — like the SDC
        rollback unpack — not simulated as elapsed time: the recovery event
        that reaches this point already carries the scheme's modeled restart
        duration.
        """
        if self.storage is None:
            return None
        result = self.storage.restore(self.sim.now)
        if result is None:
            self.timeline.record(self.sim.now, TimelineKind.TIER_RESTORE,
                                 hit=False)
            return None
        self._charge(f"recovery.tier{result.level}-read", result.read_time,
                     "recovery")
        self.timeline.record(self.sim.now, TimelineKind.TIER_RESTORE,
                             hit=True, level=result.level,
                             iteration=result.generation.iteration,
                             fellback=result.fellback)
        # One fresh token: both replicas install clones of these bytes, so
        # they share computation again from here.
        result.generation.lineage = next(self._lineage_ids)
        return result.generation

    def _install_restart_point(self) -> bool:
        """Install one restart point on both replicas: the newest intact
        durable generation, else the launch state (generation zero).
        Returns True on a tier hit."""
        restored = self._restore_from_storage()
        for replica in (0, 1):
            source = (restored if restored is not None
                      else self._initial_gen[replica])
            self.store.install_safe(replica,
                                    self.store.clone_generation(source))
        return restored is not None

    # -- one recovery path: schedule, roll back, finish ---------------------------------
    # The schemes differ in what a recovery restores, not in how it is
    # charged, traced or finished: every hard-error recovery is scheduled by
    # _schedule_restart and every recovery ends in _finish_recovery.
    def _schedule_restart(self, scheme: str, dead: int, key: str, finish,
                          *args, span=None, pack_t: float = 0.0,
                          transfer: bool = True, **span_attrs) -> None:
        """Charge ``dead``'s restart under ``scheme``'s cost model (plus the
        spare's boot and ``pack_t`` of packing already done) to phase
        ``key`` and schedule ``finish(*args)`` when it completes.  ``span``
        (by default a new ``key`` span naming the victim and ``span_attrs``)
        becomes the open recovery span."""
        replica, rank = divmod(dead, self.n)
        if span is None:
            span = self.tracer.begin(key, self.sim.now, replica=replica,
                                     rank=rank, **span_attrs)
        breakdown = self.cost.restart_breakdown(
            self.profile, self.mapping, scheme=scheme, crashed_pair=rank
        )
        duration = breakdown.total + self.config.spare_boot_time
        self._charge(key, pack_t + duration, "recovery")
        self._span_recovery = span
        if transfer:
            self.tracer.emit(
                "recovery.transfer", self.sim.now,
                self.sim.now + breakdown.transfer, parent=span)
        self._phase_events = [self.sim.schedule(duration, finish, *args)]

    def _finish_restart(self, dead: int, key: str,
                        gen: CheckpointGeneration | None = None) -> None:
        """A spare takes over ``dead``'s identity.  Its replica rolls back to
        its own safe generation (strong), or installs ``gen`` shipped from
        the healthy replica (medium, weak)."""
        self._weak_pending = None
        self._revive(dead)
        replica = dead // self.n
        if gen is None:
            self._roll_back((replica,), reason="hard", replica=replica)
        else:
            self.store.install_safe(replica, self.store.clone_generation(gen))
            self._restore_replica(replica, self.store.safe(replica))
        self._finish_recovery(key)

    def _roll_back(self, replicas: tuple[int, ...], **detail) -> None:
        """Return ``replicas`` to their safe generations; the re-execution
        back to the pre-rollback progress is traced as ``rework``."""
        self._note_rework_target()
        for replica in replicas:
            self._restore_replica(replica, self.store.safe(replica))
        self._begin_rework_span()
        self.report.rollbacks += 1
        self.timeline.record(self.sim.now, TimelineKind.ROLLBACK, **detail)

    def _finish_recovery(self, key: str, **span_attrs) -> None:
        """Count a finished recovery under ``key``, close its span and
        return to normal operation."""
        self.report.recoveries[key] = self.report.recoveries.get(key, 0) + 1
        self.timeline.record(self.sim.now, TimelineKind.RECOVERY_DONE,
                             scheme=key)
        self.tracer.end(self._span_recovery, self.sim.now, **span_attrs)
        self._span_recovery = None
        self._phase_events = []
        self.phase = "running"
        self._after_activity()

    # -- SDC: both replicas roll back locally ----------------------------------------------
    def _rollback_both(self) -> None:
        """Both replicas return to their last safe checkpoint (SDC recovery:
        local unpack, no inter-replica transfer, §6.3)."""
        self.phase = "recovering"
        duration = self.cost.sdc_rollback_time(self.profile, 2 * self.n)
        self._charge("recovery.sdc-rollback", duration, "recovery")
        self._span_recovery = self.tracer.begin("rollback", self.sim.now,
                                                reason="sdc")
        self._phase_events = [
            self.sim.schedule(duration, self._finish_rollback_both)
        ]

    def _finish_rollback_both(self) -> None:
        reason = "sdc"
        self._sdc_rollback_streak += 1
        if self._sdc_rollback_streak > 3:
            # Comparison keeps failing after rollback: the rollback target
            # itself must be corrupted/divergent.  Prefer the durable tiers —
            # any intact persisted generation passed comparison when
            # written, and installing one identical copy on BOTH replicas
            # breaks the livelock without losing the run.  Last resort:
            # restart from the beginning.
            reason = "sdc-escalation"
            self._sdc_rollback_streak = 0
            self._install_restart_point()
        self._roll_back((0, 1), reason=reason)
        self._finish_recovery(reason, reason=reason)

    # -- hard-error handling ------------------------------------------------------------
    def _on_death_detected(self, detector: int, dead: int) -> None:
        if self.phase == "done":
            return
        # Detections can arrive from both heartbeats and the consensus
        # watchdog; handle each (node, incarnation) exactly once.
        key = (dead, self.failures_survived[dead])
        if key in self._handled_deaths:
            return
        self._handled_deaths.add(key)
        self.report.hard_detected += 1
        replica, rank = divmod(dead, self.n)
        self.timeline.record(self.sim.now, TimelineKind.HARD_FAULT_DETECTED,
                             replica=replica, rank=rank)
        if self.adaptive is not None:
            self.adaptive.record_failure(self.sim.now)
        if self._spares_left <= 0:
            self._abort("spare node pool exhausted")
            return
        self._spares_left -= 1
        self.report.spare_nodes_used += 1

        if (self.phase in ("consensus", "checkpointing", "persisting")
                or self._background_event is not None):
            self._abandon_checkpoint()
        if self.phase == "recovering" or self._weak_pending is not None:
            self._second_failure(dead)
            return

        scheme = self.config.scheme
        self.phase = "recovering"
        if scheme is ResilienceScheme.STRONG:
            # Roll the crashed replica back to the previous checkpoint.
            self._schedule_restart("strong", dead, "recovery.strong",
                                   self._finish_restart, dead, "strong")
        elif scheme is ResilienceScheme.MEDIUM:
            self._start_medium_recovery(dead)
        else:
            self._start_weak_wait(dead)

    def _abandon_checkpoint(self) -> None:
        """A crash interrupted a checkpoint (consensus, blocking phases or
        background tail): cancel what is pending, drop the candidates, cut
        the tier group write short (unsafe tiers land a torn generation,
        atomic tiers abort) and retry once recovered."""
        if self._background_event is not None:
            self._background_event.cancel()
            self._background_event = None
        self.consensus.abort_round()
        self._cancel_phase_events()
        for r in (0, 1):
            self.store.discard(r)
        if self.storage is not None:
            self.storage.abort_inflight(self.sim.now)
        self._checkpoint_deferred = True
        self._end_checkpoint_span(cancelled=True)
        self.phase = "running"

    def _cancel_phase_events(self) -> None:
        for h in self._phase_events:
            h.cancel()
        self._phase_events = []

    def _end_checkpoint_span(self, **attrs) -> None:
        self.tracer.end(self._span_checkpoint, self.sim.now, **attrs)
        self._span_checkpoint = None
        self._last_ckpt_breakdown = None

    # -- medium: immediate checkpoint in the healthy replica -----------------------------
    def _start_medium_recovery(self, dead: int) -> None:
        replica, rank = divmod(dead, self.n)
        healthy_scope = self._replica_scope(1 - replica)
        self.timeline.record(self.sim.now, TimelineKind.CONSENSUS_START,
                             reason="medium-recovery", scope=len(healthy_scope))
        self._span_recovery = self.tracer.begin(
            "recovery.medium", self.sim.now, replica=replica, rank=rank)
        self._start_consensus(
            healthy_scope,
            lambda rid, it: self._consensus_decided(
                (1 - replica,), it, self._medium_packed, dead, it),
            span_parent=self._span_recovery,
        )

    def _medium_packed(self, dead: int, iteration: int) -> None:
        healthy = 1 - dead // self.n
        pack_t = self._pack_candidates(iteration, (healthy,),
                                       self._span_recovery)
        # The healthy replica resumes as soon as its checkpoints are on the
        # wire; the crashed replica reconstructs at the end of the transfer.
        self._resume_replica(healthy)
        self._schedule_restart("medium", dead, "recovery.medium",
                               self._finish_medium_recovery, dead,
                               span=self._span_recovery, pack_t=pack_t)

    def _finish_medium_recovery(self, dead: int) -> None:
        # Commit the immediate checkpoint and install it for BOTH replicas in
        # one step: the two safe generations must never diverge (a second
        # failure between an early commit and the installation would leave
        # the replicas rolling back to *different* states - an unrecoverable
        # comparison livelock).  Whatever the healthy replica had - including
        # any silent corruption since the last compared checkpoint - becomes
        # both replicas' truth: the undetected-SDC window of §2.3.
        self._finish_restart(dead, "medium",
                             self.store.commit(1 - dead // self.n))

    # -- weak: wait for the next periodic checkpoint -------------------------------------
    def _start_weak_wait(self, dead: int) -> None:
        self._weak_pending = dead
        replica, rank = divmod(dead, self.n)
        self._span_recovery = self.tracer.begin(
            "recovery.weak.wait", self.sim.now, replica=replica, rank=rank)
        self.phase = "running"
        # The crashed replica stalls on its own (tasks starve on the dead
        # node's dependencies); the healthy replica runs to the next
        # checkpoint as if nothing happened: zero-overhead recovery.  The
        # epilogue keeps the periodic timer (or a deferred request) alive so
        # that next checkpoint actually arrives.
        self._after_activity()

    def _start_weak_shipment(self, gen: CheckpointGeneration) -> None:
        dead = self._weak_pending
        assert dead is not None
        self.phase = "recovering"
        self.tracer.end(self._span_recovery, self.sim.now)
        self._schedule_restart("weak", dead, "recovery.weak",
                               self._finish_restart, dead, "weak", gen,
                               iteration=gen.iteration)

    # -- a failure during another recovery (§2.3) -----------------------------------------
    def _second_failure(self, dead: int) -> None:
        """A failure landed while another recovery was in flight, or while a
        crashed replica waited for its weak recovery: abandon that recovery
        and roll both replicas back to their last safe checkpoint.  In the
        weak-pending window a failure of the crashed node's buddy restarts
        from the beginning instead (§2.3)."""
        first = self._weak_pending if self.phase != "recovering" else None
        # The crashed node's buddy: the same rank in the other replica.
        from_scratch = first is not None and dead == self.buddy_of[first]
        self._cancel_phase_events()
        self.consensus.abort_round()
        for r in (0, 1):
            self.store.discard(r)
        self._weak_pending = None
        self.phase = "recovering"
        self.tracer.end(self._span_recovery, self.sim.now, superseded=True)
        self._schedule_restart("medium", dead, "recovery.double-failure",
                               self._finish_double_failure, from_scratch,
                               transfer=False, from_scratch=from_scratch)

    def _finish_double_failure(self, from_scratch: bool) -> None:
        # Revive every dead node, not just this recovery's detected victims: a
        # cascade of failures during recovery replaces the scheduled finish
        # repeatedly, and earlier victims must not be stranded dead.  A node
        # whose death was never detected (e.g. its buddy died too) is swept up
        # here — its replacement still comes out of the spare pool.
        for nid in range(2 * self.n):
            if self.transport.alive[nid]:
                continue
            key = (nid, self.failures_survived[nid])
            if key not in self._handled_deaths:
                if self._spares_left <= 0:
                    self._abort("spare node pool exhausted")
                    return
                self._handled_deaths.add(key)
                self._spares_left -= 1
                self.report.spare_nodes_used += 1
                self.report.hard_detected += 1
                replica, rank = divmod(nid, self.n)
                self.timeline.record(self.sim.now, TimelineKind.HARD_FAULT_DETECTED,
                                     replica=replica, rank=rank, swept=True)
            self._revive(nid)
        # "Restart from the beginning" (§2.3) becomes "restart from the
        # newest intact durable generation" when tiers are configured.
        tier_hit = from_scratch and self._install_restart_point()
        # A weak-pending solo checkpoint may have committed on the healthy
        # replica before this failure abandoned the shipment, leaving the two
        # safe generations at different iterations.  Rolling the replicas back
        # to *different* states risks a comparison livelock (§2.3) — adopt the
        # newer generation for both, exactly as the lost shipment would have.
        it0, it1 = self.store.safe_iteration(0), self.store.safe_iteration(1)
        if it0 is not None and it1 is not None and it0 != it1:
            newer = 0 if it0 > it1 else 1
            self.store.install_safe(
                1 - newer, self.store.clone_generation(self.store.safe(newer))
            )
        key = ("tier-restore" if tier_hit
               else "restart-from-beginning" if from_scratch
               else "double-failure")
        self._roll_back((0, 1), reason=key)
        self._finish_recovery(key, from_scratch=from_scratch)

    # -- restore ---------------------------------------------------------------------------
    def _restore_replica(self, replica: int, gen: CheckpointGeneration | None) -> None:
        if gen is None:
            raise SimulationError(f"replica {replica} has no safe checkpoint")
        app = self.apps[replica]
        gen.unpack(app)
        app.iteration = gen.iteration
        self._lineage[replica] = (gen.lineage if gen.lineage is not None
                                  else next(self._lineage_ids))
        if self._rings[replica].restore(gen.iteration):
            return
        table = self.task_table
        for row in table.ring_rows(replica):
            table.restore(row, gen.iteration)

    def _copy_replica_state(self, replica: int, source: int) -> None:
        """Bring ``replica`` to ``source``'s iteration by copying its state.

        Only called when both replicas carry the same lineage token, so the
        copy is bitwise what re-running the kernel would give.  Every check
        downstream (pack, checksum, buddy compare, tier persist) still runs
        on ``replica``'s own arrays.
        """
        self.apps[replica].copy_state_from(self.apps[source])

    # -- completion & bookkeeping -------------------------------------------------------------
    def _on_node_progress(self, node: int | None) -> None:
        if self._rework_target is not None:
            self._check_rework_done()
        cap = self.config.total_iterations
        if cap is None or self._final_requested:
            return
        if self._rings_reached(cap) and self.task_table.all_at_cap:
            self._final_requested = True
            self.sim.schedule(0.0, self._begin_checkpoint, "final")

    def _after_activity(self) -> None:
        """Common epilogue after a checkpoint or recovery completes."""
        cap = self.config.total_iterations
        if cap is not None:
            self._advance_rings()
            at_cap = self.task_table.all_at_cap
            if (at_cap and self.phase == "running"
                    and self.store.safe_iteration(0) == cap
                    and self.store.safe_iteration(1) == cap):
                self._finish_job()
                return
            if not at_cap:
                # A rollback dropped some tasks below the cap: let the final
                # checkpoint be re-requested when they get back there.
                self._final_requested = False
        if self._checkpoint_deferred:
            self._checkpoint_deferred = False
            self.sim.schedule(0.0, self._begin_checkpoint, "deferred")
        else:
            self._arm_checkpoint_timer()

    def _quiesce_timers(self) -> None:
        """Cancel every protocol timer the job owns.  After ``done`` the event
        queue must hold no orphaned checkpoint timers, phase events, background
        transfers, or consensus watchdogs — only perpetual heartbeat ticks."""
        if self._checkpoint_timer is not None:
            self._checkpoint_timer.cancel()
            self._checkpoint_timer = None
        if self._series_timer is not None:
            self._series_timer.cancel()
            self._series_timer = None
        self._cancel_phase_events()
        if self._background_event is not None:
            self._background_event.cancel()
            self._background_event = None
        if self._watchdog_event is not None:
            self._watchdog_event.cancel()
            self._watchdog_event = None
        if self.storage is not None:
            self.storage.discard_inflight()
        for ring in self._rings.values():
            ring.close()

    def _finish_job(self) -> None:
        self._quiesce_timers()
        self.report.completed = True
        self.phase = "done"
        self.timeline.record(self.sim.now, TimelineKind.JOB_END)
        self.sim.stop()

    def _abort(self, reason: str) -> None:
        self._quiesce_timers()
        self.report.aborted_reason = reason
        self.phase = "done"
        self.timeline.record(self.sim.now, TimelineKind.JOB_END, aborted=reason)
        self.sim.stop()

    def metrics_snapshot(self) -> dict:
        """Sample the always-on runtime counters into the metrics registry and
        return its snapshot.  Safe to call mid-run (the chaos monitor and the
        CLI both do); counters use ``set_total`` so repeated snapshots don't
        double-count."""
        self._refresh_rings()
        m = self.metrics
        rep = self.report
        m.counter("sim.events_scheduled").set_total(self.sim.events_scheduled)
        m.counter("sim.events_processed").set_total(self.sim.events_processed)
        m.counter("sim.events_cancelled").set_total(self.sim.events_cancelled)
        m.gauge("sim.queue_depth").set(self.sim.pending_events)
        m.gauge("sim.max_queue_depth").set(self.sim.max_queue_depth)
        # Cohort-batching effectiveness: how often the run loop drained
        # same-instant batches, how large they got, and the heap high-water
        # (``sim.max_queue_depth`` above) they rode on.
        m.counter("sim.cohorts_dispatched").set_total(
            self.sim.cohorts_dispatched)
        m.gauge("sim.max_cohort_events").set(self.sim.max_cohort_events)
        for i, count in enumerate(self.sim.cohort_hist):
            if count:
                lo = 1 << i
                hi = (1 << (i + 1)) - 1
                label = str(lo) if hi == lo else f"{lo}-{hi}"
                m.counter("sim.cohort_size", bucket=label).set_total(count)
        # Task-ring fast-forward (docs/protocols.md §7): windows opened (and
        # how many of them adopted a ring from the event engine),
        # task-iterations committed inside windows, syncs, and syncs that
        # landed on the instant of a fast-forwarded task event.
        rings = self._rings.values()
        for name in ("windows_opened", "adoptions", "iterations", "syncs",
                     "ties"):
            m.counter(f"sim.fast_forward.{name}").set_total(
                sum(getattr(r, name) for r in rings))
        # Consensus rounds evaluated whole (docs/protocols.md §1), those
        # handed back to the message path, and round instants that fell on
        # the instant of another event.
        engine = self.consensus.engine
        m.counter("sim.fast_forward.rounds").set_total(engine.rounds)
        m.counter("sim.fast_forward.round_fallbacks").set_total(
            engine.fallbacks)
        m.counter("sim.fast_forward.round_ties").set_total(engine.ties)
        m.counter("transport.messages_sent").set_total(self.transport.messages_sent)
        m.counter("transport.messages_delivered").set_total(
            self.transport.messages_delivered)
        m.counter("transport.messages_dropped").set_total(
            self.transport.messages_dropped)
        for kind, n in self.transport.sent_by_kind.items():
            m.counter("transport.messages_sent_by_kind", kind=kind).set_total(n)
        for kind, b in self.transport.bytes_by_kind.items():
            m.counter("transport.bytes_sent", kind=kind).set_total(b)
        m.counter("store.commits").set_total(self.store.commits)
        m.counter("store.discards").set_total(self.store.discards)
        m.gauge("store.high_water_bytes").set(self.store.high_water_bytes)
        m.gauge("store.memory_bytes").set(self.store.memory_bytes())
        m.counter("consensus.rounds_started").set_total(
            self.consensus.rounds_started)
        m.counter("consensus.rounds_completed").set_total(
            self.consensus.rounds_completed)
        m.counter("consensus.rounds_aborted").set_total(
            self.consensus.rounds_aborted)
        m.counter("acr.checkpoints_completed").set_total(
            rep.checkpoints_completed)
        m.counter("acr.rollbacks").set_total(rep.rollbacks)
        m.counter("acr.sdc_injected").set_total(rep.sdc_injected)
        m.counter("acr.sdc_detected").set_total(rep.sdc_detected)
        m.counter("acr.hard_injected").set_total(rep.hard_injected)
        m.counter("acr.hard_detected").set_total(rep.hard_detected)
        m.counter("acr.spare_nodes_used").set_total(rep.spare_nodes_used)
        for scheme, n in rep.recoveries.items():
            m.counter("acr.recoveries", scheme=scheme).set_total(n)
        if self.storage is not None:
            for level, tier in sorted(self.storage.tiers.items()):
                for name, value in tier.counters.items():
                    m.counter(f"storage.{name}",
                              level=str(level)).set_total(value)
            m.counter("storage.restore_misses").set_total(
                self.storage.restore_misses)
            m.counter("storage.fallbacks").set_total(self.storage.fallbacks)
        m.gauge("acr.spares_left").set(self._spares_left)
        m.gauge("acr.checkpoint_time_s").set(rep.checkpoint_time)
        m.gauge("acr.checkpoint_blocking_time_s").set(
            rep.checkpoint_blocking_time)
        m.gauge("acr.recovery_time_s").set(rep.recovery_time)
        for phase, t in rep.phase_times.items():
            m.gauge("acr.phase_time_s", phase=phase).set(t)
        return m.snapshot()

    def _make_app(self) -> ReplicaApp:
        """A fresh replica of the job's application at its launch state."""
        return make_app(self.app_name, self.n, scale=self.config.app_scale,
                        seed=self.config.seed, **self.app_kwargs)

    def _finalize(self) -> RunReport:
        rep = self.report
        rep.final_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.end_open(self.sim.now)
        if self.metrics.enabled:
            rep.metrics_snapshot = self.metrics_snapshot()
        if self.series.enabled:
            # Final sample so the series always covers the end of the run
            # (collapses onto the last tick when they coincide).
            self.series.sample(self.sim.now, self.metrics_snapshot())
            rep.series = self.series.to_dict()
        if self.storage is not None:
            rep.storage_counters = self.storage.counters()
        rep.iterations_completed = self.task_table.min_progress()
        rep.rework_iterations = self.task_table.rework_iterations()
        cap = self.config.total_iterations
        scratch = None
        for replica in (0, 1):
            gen = self.store.safe(replica)
            if (rep.completed and cap is not None and gen is not None
                    and gen.iteration == cap):
                # The job's deliverable is the final *verified* checkpoint.
                # Live arrays may have been corrupted after the final pack
                # (an SDC landing mid-comparison is invisible to it); the
                # committed generation is what ACR actually guarantees.
                # One scratch app serves both replicas: unpacking a
                # generation overwrites every field the digest reads.
                if scratch is None:
                    scratch = self._make_app()
                gen.unpack(scratch)
                scratch.iteration = gen.iteration
                rep.digests[replica] = scratch.result_digest()
            else:
                rep.digests[replica] = self.apps[replica].result_digest()
        if self.adaptive is not None:
            # Publish the controller's authoritative history (see
            # _current_interval); nothing else writes rep.interval_history.
            rep.interval_history = list(self.adaptive.interval_history)
        if self.config.total_iterations is not None and rep.completed:
            reference = self._make_app()
            reference.advance_to(self.config.total_iterations)
            rep.reference_digest = reference.result_digest()
            rep.result_correct = bool(
                np.array_equal(rep.digests[0], rep.reference_digest)
                and np.array_equal(rep.digests[1], rep.reference_digest)
            )
        return rep

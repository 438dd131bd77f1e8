"""Workload cells for the ACR benchmark, and the code that runs and checks them.

A *cell* is one :class:`repro.core.framework.ACR` run: an app, a replica
size, an :class:`~repro.core.config.ACRConfig` and an
:class:`~repro.faults.injector.InjectionPlan`.  Every input is derived from
the benchmark seed and the fixed fault schedule (see :func:`fault_plan`)
through named :class:`~repro.util.rng.RngStream`\\ s, so the same seed
always yields the same cells and the program receives nothing but the
config and the plan.

Each cell is timed from outside: ``ACR(...)`` construction is set-up and
``acr.run()`` (which includes the end-of-run reference recompute) is the run.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import PERIOD_S, SpeedProbe
from repro.apps.synthetic import synthetic_descriptor
from repro.core.config import ACRConfig
from repro.core.framework import ACR
from repro.faults.injector import FaultEvent, InjectionPlan, poisson_plan
from repro.model.schemes import ResilienceScheme
from repro.runtime.messages import MsgKind
from repro.storage.tiers import default_tiers
from repro.store.serialization import report_to_dict
from repro.util.hashing import canonical_digest
from repro.util.rng import RngStream

#: Seed whose per-cell digests are pinned in ``pinned_digests.json``.
DEFAULT_SEED = 0
#: Seed of the fault arrival times, which every benchmark seed shares.
SCHEDULE_SEED = 0
PINNED_PATH = Path(__file__).with_name("pinned_digests.json")

SCHEMES = (ResilienceScheme.STRONG, ResilienceScheme.MEDIUM,
           ResilienceScheme.WEAK)

# -- workload sizes ------------------------------------------------------------------
#: fault_mix: the protocol control path (consensus, aborts, three recovery
#: schemes, rollback with rework) on state so small that PUP does nothing.
FAULT_MIX_CELLS = 48
FAULT_MIX_NODES = 16
FAULT_MIX_ITERATIONS = 200
FAULT_MIX_HARD, FAULT_MIX_SDC = 2, 1
#: ckpt_bulk: the bytes path (PUP, checksums, buddy comparison) plus both
#: durable tiers, a checkpoint about every iteration.
CKPT_BULK_APPS = ("lulesh", "hpccg", "jacobi3d-charm")
CKPT_BULK_CELLS = 6
CKPT_BULK_NODES = 16
CKPT_BULK_ITERATIONS = 25
CKPT_BULK_SDC = 2
#: scale_fwd: one failure-free run at scale; per-event and per-node cost.
SCALE_FWD_NODES = 4096
SCALE_FWD_ITERATIONS = 4


@dataclass(frozen=True)
class Cell:
    """One ACR run: everything the program receives."""

    name: str
    app: str
    nodes_per_replica: int
    config: ACRConfig
    plan: InjectionPlan = field(default_factory=InjectionPlan)
    app_kwargs: dict | None = None

    @property
    def node_iters(self) -> int:
        """Simulated node-iterations the cell commits (both replicas)."""
        return 2 * self.nodes_per_replica * self.config.total_iterations


def _cell_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = RngStream(seed, f"perfbench/{workload}")
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def fault_plan(workload: str, index: int, seed: int, *, nodes_per_replica: int,
               hard_mtbf: float | None, sdc_mtbf: float | None,
               hard: int, sdc: int) -> InjectionPlan:
    """The first ``hard`` hard faults and ``sdc`` SDCs of a Poisson plan,
    with arrival times drawn from :data:`SCHEDULE_SEED` and victims from
    ``seed``.

    How much work a fault costs depends mostly on when it strikes relative
    to the last checkpoint.  With seeded arrival times and Poisson counts a
    ``fault_mix`` pass moved about 20 % between seeds; with the first *k*
    faults of seeded times, 5-6 %; with the shared schedule below, in which
    the seed picks only the victims and each cell's simulator seed, 1-2 %.
    """
    stream = f"perfbench/{workload}/{index}/faults"
    schedule = poisson_plan(hard_mtbf=hard_mtbf, sdc_mtbf=sdc_mtbf, horizon=200.0,
                            nodes_per_replica=nodes_per_replica,
                            rng=RngStream(SCHEDULE_SEED, stream))
    victims = RngStream(seed, stream)
    return InjectionPlan([
        FaultEvent(e.time, e.kind, replica=int(victims.integers(0, 2)),
                   node_id=int(victims.integers(0, nodes_per_replica)))
        for e in schedule.hard_events()[:hard] + schedule.sdc_events()[:sdc]])


def fault_mix(seed: int) -> list[Cell]:
    """Jacobi3D under Poisson hard faults and SDCs; the schemes rotate."""
    cells = []
    for i, cell_seed in enumerate(_cell_seeds("fault_mix", seed, FAULT_MIX_CELLS)):
        scheme = SCHEMES[i % 3]
        use_checksum = bool(i % 2)
        config = ACRConfig(
            scheme=scheme, checkpoint_interval=2.0, use_checksum=use_checksum,
            total_iterations=FAULT_MIX_ITERATIONS, app_scale=1e-4,
            spare_nodes=1000, seed=cell_seed)
        plan = fault_plan("fault_mix", i, seed, nodes_per_replica=FAULT_MIX_NODES,
                          hard_mtbf=3.0, sdc_mtbf=4.0,
                          hard=FAULT_MIX_HARD, sdc=FAULT_MIX_SDC)
        kind = "checksum" if use_checksum else "full"
        cells.append(Cell(f"{i:02d}-{scheme.value}-{kind}", "jacobi3d-charm",
                          FAULT_MIX_NODES, config, plan))
    return cells


def ckpt_bulk(seed: int) -> list[Cell]:
    """Three apps at 2 % of Table-2 state, checkpointing every iteration."""
    cells = []
    tiers = default_tiers(tier2_interval=0.3, tier3_interval=1.0)
    for i, cell_seed in enumerate(_cell_seeds("ckpt_bulk", seed, CKPT_BULK_CELLS)):
        app = CKPT_BULK_APPS[i % len(CKPT_BULK_APPS)]
        use_checksum = bool((i // len(CKPT_BULK_APPS)) % 2)
        config = ACRConfig(
            checkpoint_interval=0.06, use_checksum=use_checksum,
            total_iterations=CKPT_BULK_ITERATIONS, app_scale=0.02,
            storage_tiers=tiers, seed=cell_seed)
        plan = fault_plan("ckpt_bulk", i, seed, nodes_per_replica=CKPT_BULK_NODES,
                          hard_mtbf=None, sdc_mtbf=2.0, hard=0, sdc=CKPT_BULK_SDC)
        kind = "checksum" if use_checksum else "full"
        cells.append(Cell(f"{i:02d}-{app}-{kind}", app, CKPT_BULK_NODES,
                          config, plan))
    return cells


def scale_fwd(seed: int) -> list[Cell]:
    """One failure-free synthetic run with a single coordinated checkpoint."""
    (cell_seed,) = _cell_seeds("scale_fwd", seed, 1)
    config = ACRConfig(
        checkpoint_interval=20.0, total_iterations=SCALE_FWD_ITERATIONS,
        app_scale=1e-4, spare_nodes=0, seed=cell_seed)
    kwargs = {"descriptor": synthetic_descriptor(iteration_seconds=10.0)}
    return [Cell("00-synthetic", "synthetic", SCALE_FWD_NODES, config,
                 app_kwargs=kwargs)]


WORKLOADS = {"fault_mix": fault_mix, "ckpt_bulk": ckpt_bulk,
             "scale_fwd": scale_fwd}


def build_cells(workload: str, seed: int) -> list[Cell]:
    return WORKLOADS[workload](seed)


def warmup_cells(cells: list[Cell]) -> list[Cell]:
    """Tiny versions of the workload's cells: one per app, two nodes, four
    iterations, no faults — enough to import and initialise every path."""
    seen: dict[str, Cell] = {}
    for cell in cells:
        if cell.app not in seen:
            seen[cell.app] = Cell(
                f"warmup-{cell.app}", cell.app, 2,
                cell.config.with_overrides(total_iterations=4),
                app_kwargs=cell.app_kwargs)
    return list(seen.values())


# -- running one cell ------------------------------------------------------------------
@dataclass
class CellResult:
    """Host timing, simulated digest and layer counters of one cell run."""

    name: str
    setup_s: float = 0.0
    run_s: float = 0.0
    #: ``setup_s`` and ``run_s`` as seconds on the reference host (see
    #: ``hostspeed.py``); equal to them when the cell ran without probes.
    setup_ref_s: float = 0.0
    run_ref_s: float = 0.0
    #: Reference-host speed over the median sampled host speed (1 = as fast
    #: as the reference host); 0 when the cell ran without probes.
    slowdown: float = 0.0
    #: Process CPU seconds over set-up and run (all threads).
    cpu_s: float = 0.0
    digest: str | None = None
    error: str | None = None
    #: Counters read off the finished ACR objects (plain attribute reads).
    counters: dict = field(default_factory=dict)


def _counters(acr: ACR, report) -> dict:
    sim, transport, store = acr.sim, acr.transport, acr.store
    return {
        "events": sim.events_processed,
        "cohorts": sim.cohorts_dispatched,
        "max_queue_depth": sim.max_queue_depth,
        "messages": transport.messages_sent,
        "message_bytes": sum(transport.bytes_by_kind.values()),
        "heartbeats": transport.sent_by_kind.get(MsgKind.HEARTBEAT.value, 0),
        "rounds": acr.consensus.rounds_started,
        "rounds_aborted": acr.consensus.rounds_aborted,
        "commits": store.commits,
        "discards": store.discards,
        "high_water_bytes": store.high_water_bytes,
        "rework_iterations": report.rework_iterations,
        "hard_injected": report.hard_injected,
        "sdc_injected": report.sdc_injected,
        "sdc_detected": report.sdc_detected,
    }


def run_cell(cell: Cell, *, probe: bool = True, period: float | None = PERIOD_S,
             on_setup=None, gc_meter=None) -> CellResult:
    """Run one cell; never raises — a failure is recorded on the result.

    With ``probe``, set-up and run are each timed inside a
    :class:`~hostspeed.SpeedProbe` that samples every ``period`` seconds
    (the traced pass runs without, so no kernel sample lands inside a
    span).  ``on_setup`` is called between set-up and run (the tracer marks
    the phase boundary there); ``gc_meter`` is entered around set-up and run.
    """
    result = CellResult(cell.name)
    setup_probe = SpeedProbe(period) if probe else nullcontext()
    run_probe = SpeedProbe(period) if probe else nullcontext()
    # Collect outside the timed region so a generation-2 sweep over the
    # previous cell's garbage never lands inside this cell's set-up.
    gc.collect()
    try:
        with gc_meter if gc_meter is not None else nullcontext():
            c0 = time.process_time()
            with setup_probe:
                t0 = time.perf_counter()
                acr = ACR(cell.app, nodes_per_replica=cell.nodes_per_replica,
                          config=cell.config, injection_plan=cell.plan,
                          app_kwargs=cell.app_kwargs)
                t1 = time.perf_counter()
            if on_setup is not None:
                on_setup()
            with run_probe:
                t2 = time.perf_counter()
                report = acr.run()
                t3 = time.perf_counter()
            c1 = time.process_time()
    except Exception as exc:  # a raising cell is a failed operation, not a crash
        result.error = f"raised {type(exc).__name__}: {exc}"
        return result
    result.setup_s = result.setup_ref_s = t1 - t0
    result.run_s = result.run_ref_s = t3 - t2
    result.cpu_s = c1 - c0
    if probe:
        result.setup_s -= setup_probe.overhead_s
        result.run_s -= run_probe.overhead_s
        result.setup_ref_s = setup_probe.reference_s(t1 - t0)
        result.run_ref_s = run_probe.reference_s(t3 - t2)
        result.slowdown = 1 / statistics.median(
            setup_probe.samples + run_probe.samples)
    if report.aborted_reason is not None:
        result.error = f"aborted: {report.aborted_reason}"
    elif not report.completed:
        result.error = "did not complete"
    result.digest = report_digest(report)
    result.counters = _counters(acr, report)
    return result


# -- correctness -------------------------------------------------------------------------
def report_digest(report) -> str:
    """SHA-256 over every field of the run report, timeline included."""
    return canonical_digest(report_to_dict(report))


def load_pinned(workload: str, path: Path = PINNED_PATH) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh).get(workload, {})


def check_passes(passes: list[list[CellResult]],
                 expected: dict[str, str] | None) -> list[str]:
    """Failure reasons, one per failed cell run across all passes.

    ``expected`` maps cell name to its pinned digest; when it is None the
    first pass's digests are the reference, so every later pass (and the
    traced passes) must reproduce them exactly.
    """
    reference = expected
    if reference is None and passes:
        reference = {r.name: r.digest for r in passes[0]}
    failures = []
    for number, results in enumerate(passes):
        for r in results:
            if r.error is not None:
                failures.append(f"pass {number} {r.name}: {r.error}")
            elif reference.get(r.name) != r.digest:
                failures.append(
                    f"pass {number} {r.name}: digest {r.digest} != "
                    f"expected {reference.get(r.name)}")
    return failures

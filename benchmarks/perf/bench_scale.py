"""Paper-scale end-to-end benchmark: a 2×64Ki-node replica pair under ACR.

The paper evaluates ACR at up to 131,072 cores on Intrepid (§6); this bench
simulates that node count end to end — full framework, heartbeat monitor,
periodic coordinated checkpoints — in the regime those machines actually run:
multi-second compute iterations with the buddy-heartbeat firehose as the
dominant event-queue load between checkpoints.

Throughput is reported in two units:

* ``events_per_s`` — heap events dispatched per wall second.  Honest but
  *not* comparable across the cohort-batching change: the vectorized
  heartbeat sweep settles 131,072 probes in a single event.
* ``legacy_equivalent_events_per_s`` — the same run counted at pre-batching
  granularity (one event per message, via the transport's
  ``batched_messages``/``batch_events`` counters).  This is the unit the
  historical ``des_acr`` baseline was measured in, so
  ``events_speedup_vs_des_acr`` is an apples-to-apples end-to-end ratio —
  the gated acceptance number.

A small partitioned-mode measurement rides along: the same scenario class
through :mod:`repro.harness.parallel` with ``partitions > 1``, asserting the
merged trace is byte-identical to the single-partition run and recording the
worker clamp (``cpu_count`` / requested / effective / partitions) plus the
multi-process speedup (CPU-gated in ``compare_bench.py``, like
``campaign.parallel_speedup``).

The partitioned mode has one data plane (shared-memory record rings) and
one window loop, run either in-process or by forked workers.  Three
dedicated measurements cover it:

* ``window_stress`` — the *same* window-heavy 2×64Ki-node
  coordinated-cadence scenario over 2 partitions, once in-process and once
  on 2 forked workers.  Windows are numerous and nearly empty, so the
  measurement isolates per-window loop overhead; the loop-wall ratio is
  ``shm_speedup_vs_inprocess`` (CPU-gated in compare_bench).  Per-window
  barrier-overhead and per-worker peak-RSS breakdowns ride on the forked
  report.
* ``parallel_xl`` — a 2×128Ki-node run (beyond the single-process bench's
  paper scale) on forked workers, with the same breakdowns; its
  completion is the gated ``xl_completed`` flag.
* the trace-identity matrix inside ``parallel`` — merged-trace digests
  across 1/4/8 partitions in-process and 4 partitions on 2 forked workers,
  plus a coordinated-checkpoint run executing on forked workers
  (``coordinated_parallel_ok``: consensus rounds > 0, no single-process
  fallback, digest unchanged).
"""

from __future__ import annotations

import os
import resource
import time

from repro.apps.synthetic import synthetic_descriptor
from repro.core.config import ACRConfig
from repro.core.framework import ACR
from repro.harness.parallel import ParallelScenario, run_parallel

KIB = 1024


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_scale_run(
    *,
    nodes_per_replica: int = 64 * KIB,
    total_iterations: int = 6,
    iteration_seconds: float = 10.0,
    checkpoint_interval: float = 60.0,
    seed: int = 3,
    reference_events_per_s: float | None = None,
) -> dict:
    """One failure-free 2×``nodes_per_replica`` ACR run, timed end to end."""
    config = ACRConfig(
        scheme="strong", checkpoint_interval=checkpoint_interval,
        total_iterations=total_iterations, tasks_per_node=1,
        app_scale=1e-4, seed=seed, spare_nodes=0)
    t0 = time.perf_counter()
    acr = ACR("synthetic", nodes_per_replica=nodes_per_replica, config=config,
              app_kwargs={"descriptor": synthetic_descriptor(
                  iteration_seconds=iteration_seconds)})
    t1 = time.perf_counter()
    report = acr.run(until=100.0 * iteration_seconds, max_events=500_000_000)
    wall = time.perf_counter() - t1
    sim, transport = acr.sim, acr.transport
    events = sim.events_processed
    legacy_events = events + transport.batched_messages - transport.batch_events
    node_iterations = 2 * nodes_per_replica * total_iterations
    out = {
        "nodes": 2 * nodes_per_replica,
        "nodes_per_replica": nodes_per_replica,
        "total_iterations": total_iterations,
        "iteration_seconds": iteration_seconds,
        "completed": report.completed,
        "sim_time": sim.now,
        "construct_s": t1 - t0,
        "wall_s": wall,
        "events": events,
        "legacy_equivalent_events": legacy_events,
        "events_per_s": events / wall,
        "legacy_equivalent_events_per_s": legacy_events / wall,
        "node_iterations_per_s": node_iterations / wall,
        "peak_rss_mib": _peak_rss_mib(),
        "max_queue_depth": sim.max_queue_depth,
        "max_cohort_events": sim.max_cohort_events,
    }
    if reference_events_per_s:
        out["events_speedup_vs_des_acr"] = (
            out["legacy_equivalent_events_per_s"] / reference_events_per_s)
    return out


def bench_parallel_mode(
    *,
    nodes_per_replica: int = 2 * KIB,
    total_iterations: int = 8,
    partitions: int = 4,
    seed: int = 7,
) -> dict:
    """Partitioned-mode determinism check + speedup on a mid-size scenario.

    On top of the original 1-vs-N wall comparison, computes the merged-trace
    digest across 1/4/8 partitions in-process and 4 partitions on 2 forked
    workers, and runs a coordinated-checkpoint scenario on forced forked
    workers — ``modes_trace_identical`` and ``coordinated_parallel_ok`` are
    the gated flags.
    """
    scenario = ParallelScenario(
        nodes_per_replica=nodes_per_replica,
        total_iterations=total_iterations,
        iteration_seconds=0.5, n_faults=2, fault_window=(0.1, 0.4),
        scheme="strong", snapshot_interval=2.0,
        horizon=total_iterations * 0.5 * 6.0, seed=seed)
    single = run_parallel(scenario, partitions=1, workers=1, trace=True)
    cpus = os.cpu_count() or 1
    requested = min(partitions, cpus) if cpus > 1 else partitions
    multi = run_parallel(scenario, partitions=partitions, workers=requested,
                         trace=True)
    assert single.wall_s > 0 and multi.wall_s > 0

    # Trace-identity matrix: every decomposition, in-process and forked,
    # must reproduce the single-partition digest byte for byte.
    digests: dict[str, str] = {}
    for parts in (1, 4, 8):
        rep = run_parallel(scenario, partitions=parts, workers=1, trace=True)
        digests[f"p{parts}-{rep.data_plane}"] = rep.trace_digest
    rep = run_parallel(scenario, partitions=4, workers=2, trace=True,
                       force_processes=True)
    digests[f"p4w2-{rep.data_plane}"] = rep.trace_digest
    modes_identical = len(set(digests.values())) == 1 \
        and single.trace_digest in digests.values()

    # Coordinated checkpoint-consensus under the parallel mode: rounds must
    # actually execute in forked workers (no single-process fallback) and
    # the golden digest must match the in-process reference.
    coord_scenario = ParallelScenario(
        nodes_per_replica=max(nodes_per_replica // 8, 8),
        total_iterations=total_iterations,
        iteration_seconds=0.5, n_faults=2, fault_window=(0.1, 0.4),
        scheme="coordinated", coordinated_interval=1.0,
        coordinated_pause=0.1,
        horizon=total_iterations * 0.5 * 6.0, seed=seed)
    coord_ref = run_parallel(coord_scenario, partitions=1, trace=True)
    coord_par = run_parallel(coord_scenario, partitions=4, workers=2,
                             trace=True, force_processes=True)
    coordinated_ok = bool(
        coord_par.data_plane == "shm"
        and coord_par.consensus_rounds > 0
        and coord_par.consensus_rounds == coord_ref.consensus_rounds
        and coord_par.trace_digest == coord_ref.trace_digest
        and coord_par.completed)

    return {
        "nodes": 2 * nodes_per_replica,
        "partitions": partitions,
        "cpu_count": cpus,
        "requested_workers": multi.requested_workers,
        "effective_workers": multi.effective_workers,
        "windows": multi.windows,
        "completed": bool(single.completed and multi.completed),
        "trace_identical": single.trace_digest == multi.trace_digest,
        "trace_digest": single.trace_digest,
        "single_wall_s": single.wall_s,
        "partitioned_wall_s": multi.wall_s,
        "parallel_speedup": single.wall_s / multi.wall_s,
        "events_single": single.events_processed,
        "events_partitioned": multi.events_processed,
        "mode_digests": digests,
        "modes_trace_identical": modes_identical,
        "coordinated_rounds": coord_par.consensus_rounds,
        "coordinated_data_plane": coord_par.data_plane,
        "coordinated_parallel_ok": coordinated_ok,
    }


def bench_window_stress(
    *,
    nodes_per_replica: int = 64 * KIB,
    horizon: float = 12.0,
    iteration_seconds: float = 10.0,
    coordinated_interval: float = 0.01,
    partitions: int = 2,
    workers: int = 2,
    seed: int = 5,
) -> dict:
    """In-process vs forked workers on a window-heavy scenario.

    Long compute iterations plus a fast coordinated-round cadence make the
    windows numerous and nearly empty, so per-window overhead (the forked
    side's scalar barrier waits) is a large share of the loop wall.  Both
    runs use the same partitions and the same window loop; the forked run
    is forced multiprocess, so the ratio measures what ``workers`` buys,
    and it is only *gated* on multi-core machines.
    """
    scenario = ParallelScenario(
        nodes_per_replica=nodes_per_replica, total_iterations=1,
        iteration_seconds=iteration_seconds, horizon=horizon,
        coordinated_interval=coordinated_interval, scheme="strong",
        seed=seed)
    shm = run_parallel(scenario, partitions=partitions, workers=workers,
                       force_processes=True)
    inproc = run_parallel(scenario, partitions=partitions, workers=1)
    assert shm.wall_s > 0 and inproc.wall_s > 0
    assert shm.data_plane == "shm" and inproc.data_plane == "inprocess"
    barrier_total = sum(shm.barrier_wait_s or [])
    window_barrier = shm.window_barrier_s or []
    return {
        "nodes": 2 * nodes_per_replica,
        "partitions": partitions,
        "workers": workers,
        "windows": shm.windows,
        "consensus_rounds": shm.consensus_rounds,
        "completed": bool(shm.completed and inproc.completed),
        "inprocess_wall_s": inproc.wall_s,
        "shm_wall_s": shm.wall_s,
        "inprocess_loop_wall_s": inproc.loop_wall_s,
        "shm_loop_wall_s": shm.loop_wall_s,
        "inprocess_events_per_s": inproc.events_processed
        / inproc.loop_wall_s,
        "shm_events_per_s": shm.events_processed / shm.loop_wall_s,
        "shm_speedup_vs_inprocess": inproc.loop_wall_s / shm.loop_wall_s,
        "barrier_wait_share": (
            barrier_total / (len(shm.barrier_wait_s or [1]) * shm.loop_wall_s)
            if shm.loop_wall_s else 0.0),
        "mean_window_barrier_s": (sum(window_barrier) / len(window_barrier)
                                  if window_barrier else 0.0),
        "max_window_barrier_s": max(window_barrier, default=0.0),
        "worker_peak_rss_mib": shm.worker_peak_rss_mib,
        "max_worker_rss_mib": max(shm.worker_peak_rss_mib or [0.0]),
    }


#: Per-worker RSS ceiling for the shm plane at full scale: the seed's
#: single-process 2×64Ki run peaked at 865 MiB, so two shm workers splitting
#: a 2×128Ki scenario must each stay well under it.
XL_WORKER_RSS_CEILING_MIB = 700.0


def bench_parallel_xl(
    *,
    nodes_per_replica: int = 128 * KIB,
    horizon: float = 12.0,
    coordinated_interval: float = 0.1,
    partitions: int = 2,
    workers: int = 2,
    seed: int = 5,
) -> dict:
    """A 2×128Ki-node run on forked workers over the shared arena.

    Twice the single-process bench's paper scale — the regime the shm
    rework exists for.  Reports the per-window barrier-overhead and
    per-worker peak-RSS breakdowns; completion and the RSS ceiling are the
    gated outcomes.
    """
    scenario = ParallelScenario(
        nodes_per_replica=nodes_per_replica, total_iterations=1,
        iteration_seconds=10.0, horizon=horizon,
        coordinated_interval=coordinated_interval, scheme="strong",
        seed=seed)
    report = run_parallel(scenario, partitions=partitions, workers=workers,
                          force_processes=True)
    assert report.wall_s > 0
    window_barrier = report.window_barrier_s or []
    max_rss = max(report.worker_peak_rss_mib or [0.0])
    return {
        "nodes": 2 * nodes_per_replica,
        "partitions": partitions,
        "workers": workers,
        "windows": report.windows,
        "consensus_rounds": report.consensus_rounds,
        "completed": report.completed,
        "data_plane": report.data_plane,
        "wall_s": report.wall_s,
        "loop_wall_s": report.loop_wall_s,
        "events": report.events_processed,
        "barrier_wait_s": report.barrier_wait_s,
        "mean_window_barrier_s": (sum(window_barrier) / len(window_barrier)
                                  if window_barrier else 0.0),
        "max_window_barrier_s": max(window_barrier, default=0.0),
        "worker_peak_rss_mib": report.worker_peak_rss_mib,
        "max_worker_rss_mib": max_rss,
        "rss_ceiling_mib": XL_WORKER_RSS_CEILING_MIB,
        "rss_within_ceiling": max_rss <= XL_WORKER_RSS_CEILING_MIB,
    }


def run_all_scale(*, quick: bool = False,
                  reference_events_per_s: float | None = None) -> dict:
    """``bench_scale`` section: the full-scale run + the parallel-mode check.

    ``quick`` trims to the ~8Ki-node smoke configuration the CI
    ``scale_smoke`` job runs inside its wall-clock budget.
    """
    if quick:
        scale = bench_scale_run(
            nodes_per_replica=8 * KIB, total_iterations=3,
            reference_events_per_s=reference_events_per_s)
        parallel = bench_parallel_mode(nodes_per_replica=256,
                                       total_iterations=6, partitions=4)
        # The trimmed 16Ki-node window stress the CI scale_smoke lane runs
        # inside its 120 s budget; the 2×128Ki xl run is full-bench only.
        stress = bench_window_stress(nodes_per_replica=8 * KIB,
                                     horizon=6.0, iteration_seconds=5.0,
                                     coordinated_interval=0.02)
        xl = None
    else:
        scale = bench_scale_run(reference_events_per_s=reference_events_per_s)
        parallel = bench_parallel_mode()
        stress = bench_window_stress()
        xl = bench_parallel_xl()
    scale["quick"] = quick
    scale["parallel"] = parallel
    scale["window_stress"] = stress
    # Surface the gated metrics at the section's top level for compare_bench.
    scale["parallel_trace_identical"] = parallel["trace_identical"]
    scale["parallel_speedup"] = parallel["parallel_speedup"]
    scale["cpu_count"] = parallel["cpu_count"]
    scale["modes_trace_identical"] = parallel["modes_trace_identical"]
    scale["coordinated_parallel_ok"] = parallel["coordinated_parallel_ok"]
    scale["shm_speedup_vs_inprocess"] = stress["shm_speedup_vs_inprocess"]
    scale["shm_events_per_s"] = stress["shm_events_per_s"]
    scale["inprocess_events_per_s"] = stress["inprocess_events_per_s"]
    scale["max_worker_rss_mib"] = stress["max_worker_rss_mib"]
    if xl is not None:
        scale["parallel_xl"] = xl
        scale["xl_completed"] = bool(xl["completed"]
                                     and xl["rss_within_ceiling"])
    return {"bench_scale": scale}

"""Paper-scale end-to-end benchmark: a 2×64Ki-node replica pair under ACR.

The paper evaluates ACR at up to 131,072 cores on Intrepid (§6); this bench
simulates that node count end to end — full framework, heartbeat monitor,
periodic coordinated checkpoints — in the regime those machines actually run:
multi-second compute iterations with the buddy-heartbeat firehose as the
dominant event-queue load between checkpoints.

Throughput is reported in two units:

* ``node_iterations_per_s`` — node-iterations committed per wall second.
* ``legacy_equivalent_events_per_s`` — the run counted at pre-batching
  granularity (one event per message, via the transport's
  ``batched_messages``/``batch_events`` counters).  This is the unit the
  historical ``des_acr`` baseline was measured in, so
  ``events_speedup_vs_des_acr`` is an apples-to-apples end-to-end ratio —
  the gated acceptance number.

The raw heap-event count (``events``) is kept but no rate is made of it:
the ring fast-forward and the round engine leave a few hundred heap events
in a failure-free run, whatever its size.

In full mode a second row, ``xl``, runs the same engine at 2×128Ki nodes,
twice the paper's largest run; its ``completed`` is the gated
``xl_completed`` flag.  Each row is one :class:`~repro.core.framework.ACR`
in this process.

Each row also reports, separately for construction (``construct_*``) and
the run (``run_*``), the garbage collector's work: collections by
generation (``gc_gen0``/``gc_gen1``/``gc_gen2``), the time they took
(``gc_s``, from ``gc.callbacks``) and the tracked containers the phase
added per node (``tracked_per_node``, from ``gc.get_objects()`` counted
outside the timed windows).  Each row collects garbage once before it
starts, outside the timed windows: the previous row's engine is cyclic
garbage, and collecting it is not the next row's construction cost.  No
collection is forced between construction and run.
"""

from __future__ import annotations

import gc
import resource
import time

from repro.apps.synthetic import synthetic_descriptor
from repro.core.config import ACRConfig
from repro.core.framework import ACR

KIB = 1024


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _GcWatch:
    """Collections by generation, and their seconds, while installed."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "_GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def fields(self, phase: str, tracked: int, nodes: int) -> dict:
        out = {f"{phase}_gc_gen{g}": n for g, n in enumerate(self.collections)}
        out[f"{phase}_gc_s"] = self.seconds
        out[f"{phase}_tracked_per_node"] = tracked / nodes
        return out


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
    gc.collect()
    tracked0 = len(gc.get_objects())
    with _GcWatch() as construct_gc:
        t0 = time.perf_counter()
        acr = ACR("synthetic", nodes_per_replica=nodes_per_replica,
                  config=config,
                  app_kwargs={"descriptor": synthetic_descriptor(
                      iteration_seconds=iteration_seconds)})
        t1 = time.perf_counter()
    tracked1 = len(gc.get_objects())
    with _GcWatch() as run_gc:
        t2 = time.perf_counter()
        report = acr.run(until=100.0 * iteration_seconds,
                         max_events=500_000_000)
        wall = time.perf_counter() - t2
    tracked2 = len(gc.get_objects())
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
        "legacy_equivalent_events_per_s": legacy_events / wall,
        "node_iterations_per_s": node_iterations / wall,
        "peak_rss_mib": _peak_rss_mib(),
        "max_queue_depth": sim.max_queue_depth,
        "max_cohort_events": sim.max_cohort_events,
        **construct_gc.fields("construct", tracked1 - tracked0,
                              2 * nodes_per_replica),
        **run_gc.fields("run", tracked2 - tracked1, 2 * nodes_per_replica),
    }
    if reference_events_per_s:
        out["events_speedup_vs_des_acr"] = (
            out["legacy_equivalent_events_per_s"] / reference_events_per_s)
    return out


def run_all_scale(*, quick: bool = False,
                  reference_events_per_s: float | None = None) -> dict:
    """``bench_scale`` section: the 2×64Ki run, plus the 2×128Ki ``xl`` row.

    ``quick`` trims to the ~8Ki-node smoke configuration the CI
    ``scale_smoke`` job runs inside its wall-clock budget, without ``xl``.
    """
    if quick:
        scale = bench_scale_run(
            nodes_per_replica=8 * KIB, total_iterations=3,
            reference_events_per_s=reference_events_per_s)
    else:
        scale = bench_scale_run(reference_events_per_s=reference_events_per_s)
        xl = bench_scale_run(nodes_per_replica=128 * KIB)
        scale["xl"] = xl
        scale["xl_completed"] = xl["completed"]
    scale["quick"] = quick
    return {"bench_scale": scale}

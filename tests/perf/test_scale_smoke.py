"""CI scale smoke: the trimmed paper-scale configuration inside a budget.

``pytest -m scale_smoke`` is the CI job's selector; it also picks up the
determinism oracles in ``tests/runtime/test_scale_equivalence.py`` and
``tests/harness/test_parallel.py`` (marked there).  This file runs the
quick ``bench_scale`` configuration — a 2×8192-node replica pair end to
end, the partitioned-mode determinism checks, and the window-stress
comparison (the one window loop in-process vs on two forked workers over
the shared-memory rings) on a trimmed 2×8192-node (16Ki) scenario — and
enforces a wall-clock budget so the scale path can never quietly regress
into being unrunnable.  The forked run's per-window barrier-overhead
series is written to ``scale_smoke_barrier_series.json`` so the CI job can
upload it as an artifact when the lane fails.
"""

import json
import os
from pathlib import Path
from time import perf_counter

import pytest

from benchmarks.perf.bench_scale import run_all_scale
from repro.harness.parallel import ParallelScenario, run_parallel

pytestmark = pytest.mark.scale_smoke

#: Generous multiple of the ~10 s the quick configuration takes on one CPU;
#: blowing this means the scale path got orders-of-magnitude slower, not
#: that the runner was busy.
WALL_BUDGET_S = 120.0

#: Where the barrier-overhead diagnostics land (uploaded by CI on failure).
ARTIFACT_PATH = Path(
    os.environ.get("SCALE_SMOKE_ARTIFACT", "scale_smoke_barrier_series.json"))


class TestScaleSmoke:
    def test_quick_scale_run_completes_within_budget(self):
        t0 = perf_counter()
        results = run_all_scale(quick=True, reference_events_per_s=None)
        elapsed = perf_counter() - t0
        scale = results["bench_scale"]
        assert scale["completed"]
        assert scale["nodes"] == 16384
        assert scale["quick"] is True
        assert scale["legacy_equivalent_events_per_s"] > scale["events_per_s"]
        assert scale["parallel_trace_identical"]
        assert scale["modes_trace_identical"]
        assert scale["coordinated_parallel_ok"]
        parallel = scale["parallel"]
        assert parallel["completed"]
        assert parallel["effective_workers"] <= parallel["cpu_count"]
        stress = scale["window_stress"]
        assert stress["completed"]
        assert stress["nodes"] == 16384
        assert stress["windows"] > 100, "window-stress cadence collapsed"
        assert stress["shm_speedup_vs_inprocess"] > 0
        assert stress["max_worker_rss_mib"] > 0
        assert elapsed < WALL_BUDGET_S, (
            f"scale smoke took {elapsed:.1f}s (> {WALL_BUDGET_S}s budget)")

    def test_shm_plane_barrier_series_artifact(self):
        """Run forked workers on the trimmed scenario and persist their
        per-window barrier-overhead series.  The file is written on success
        too (cheap), so a *later* failure in this lane still has the most
        recent series to upload."""
        scenario = ParallelScenario(
            nodes_per_replica=8192, total_iterations=1,
            iteration_seconds=5.0, horizon=6.0,
            coordinated_interval=0.05, scheme="strong", seed=5)
        report = run_parallel(scenario, partitions=2, workers=2,
                              force_processes=True)
        assert report.data_plane == "shm"
        assert report.completed
        assert report.wall_s > 0
        assert report.window_barrier_s is not None
        assert len(report.window_barrier_s) == report.windows
        ARTIFACT_PATH.write_text(json.dumps({
            "nodes": 2 * scenario.nodes_per_replica,
            "windows": report.windows,
            "consensus_rounds": report.consensus_rounds,
            "loop_wall_s": report.loop_wall_s,
            "barrier_wait_s": report.barrier_wait_s,
            "window_barrier_s": report.window_barrier_s,
            "worker_peak_rss_mib": report.worker_peak_rss_mib,
        }, indent=1))

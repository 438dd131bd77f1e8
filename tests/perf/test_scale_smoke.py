"""CI scale smoke: the trimmed paper-scale configuration inside a budget.

``pytest -m scale_smoke`` is the CI job's selector; it also picks up the
determinism oracles in ``tests/runtime/test_scale_equivalence.py`` (marked
there).  This file runs the quick ``bench_scale`` configuration — a
2×8192-node replica pair end to end through the real ``ACR`` engine — and
enforces a wall-clock budget so the scale path can never quietly regress
into being unrunnable.  It also counts the per-task calls and the task
views of a ``scale_fwd``-shaped run, so a per-task pass or per-task object
that comes back fails here.
"""

from collections import Counter
from time import perf_counter

import pytest

from benchmarks.perf.bench_scale import run_all_scale
from repro.apps import synthetic_descriptor
from repro.core import ACR, ACRConfig
from repro.runtime.ring import RingFastForward
from repro.runtime.soa import TaskTable
from repro.runtime.task import Task

pytestmark = pytest.mark.scale_smoke

#: Generous multiple of the few seconds the quick configuration takes on
#: one CPU; blowing this means the scale path got orders of magnitude
#: slower, not that the runner was busy.
WALL_BUDGET_S = 120.0


class TestScaleSmoke:
    def test_quick_scale_run_completes_within_budget(self):
        t0 = perf_counter()
        results = run_all_scale(quick=True, reference_events_per_s=None)
        elapsed = perf_counter() - t0
        scale = results["bench_scale"]
        assert scale["completed"]
        assert scale["nodes"] == 16384
        assert scale["quick"] is True
        assert "xl" not in scale
        assert scale["legacy_equivalent_events"] > scale["events"]
        # Construction tracks no object per node or task: a constant few
        # dozen containers, about 0.005 per node at 2×8 Ki.
        assert scale["construct_tracked_per_node"] <= 0.02
        assert elapsed < WALL_BUDGET_S, (
            f"scale smoke took {elapsed:.1f}s (> {WALL_BUDGET_S}s budget)")


class TestNoPerTaskPass:
    """A failure-free run shaped like perfbench's ``scale_fwd`` cell (2×4 Ki
    synthetic nodes, a checkpoint at iteration 2 and the final one at the
    cap) keeps both rings fast-forwarded from start to end: no task is
    started, resumed or stepped one by one through the task table's
    event-mode entry points, no task view is built, and each ring closes
    once, at job end."""

    def test_rings_stay_fast_forwarded_through_every_checkpoint(
            self, monkeypatch):
        per_task = Counter()
        closes = Counter()

        def count(cls, name, key):
            method = getattr(cls, name)

            def counted(obj, *args):
                key(obj)
                return method(obj, *args)

            monkeypatch.setattr(cls, name, counted)

        for cls, name in ((TaskTable, "start"), (TaskTable, "resume"),
                          (TaskTable, "restore"), (TaskTable, "_try_start"),
                          (TaskTable, "request_pause_at"), (Task, "__init__"),
                          (TaskTable, "_paused")):
            count(cls, name, lambda obj, name=name: per_task.update([name]))
        count(RingFastForward, "close", lambda ring: closes.update([ring]))
        config = ACRConfig(checkpoint_interval=20.0, total_iterations=4,
                           app_scale=1e-4, spare_nodes=0, seed=0)
        acr = ACR("synthetic", nodes_per_replica=4096, config=config,
                  app_kwargs={"descriptor": synthetic_descriptor(
                      iteration_seconds=10.0)})
        report = acr.run()
        assert report.completed and report.result_correct
        assert report.checkpoints_completed >= 2
        assert per_task == {}
        assert closes == {ring: 1 for ring in acr._rings.values()}

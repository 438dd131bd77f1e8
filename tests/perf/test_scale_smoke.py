"""CI scale smoke: the trimmed paper-scale configuration inside a budget.

``pytest -m scale_smoke`` is the CI job's selector; it also picks up the
determinism oracles in ``tests/runtime/test_scale_equivalence.py`` (marked
there).  This file runs the quick ``bench_scale`` configuration — a
2×8192-node replica pair end to end through the real ``ACR`` engine — and
enforces a wall-clock budget so the scale path can never quietly regress
into being unrunnable.
"""

from time import perf_counter

import pytest

from benchmarks.perf.bench_scale import run_all_scale

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
        assert scale["legacy_equivalent_events_per_s"] > scale["events_per_s"]
        assert elapsed < WALL_BUDGET_S, (
            f"scale smoke took {elapsed:.1f}s (> {WALL_BUDGET_S}s budget)")

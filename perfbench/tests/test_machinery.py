"""Tests for the benchmark's own machinery (not for the ACR program).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import gc
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cells
import hostspeed
import layers
import spans
from spans import SpanRecorder, SpanTable, self_times

BENCH = Path(__file__).resolve().parent.parent


def _tiny_cell(**overrides) -> cells.Cell:
    (cell,) = cells.warmup_cells(cells.build_cells("fault_mix", 1)[:1])
    return dataclasses.replace(cell, **overrides)


# -- self-time arithmetic -------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_record_nesting_and_group_stats(monkeypatch):
    rec = SpanRecorder()
    clock = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    leaf = rec.wrap("leaf", lambda: None)
    inner = rec.wrap("inner", lambda: leaf())
    outer = rec.wrap("outer", lambda: (inner(), leaf()))
    outer()
    assert [rec.names[i] for i in rec.name_ix] == ["outer", "inner", "leaf", "leaf"]
    assert list(rec.parent) == [-1, 0, 1, 0]
    table = SpanTable(rec)
    # outer [0,7], inner [1,4], leaf [2,3], leaf [5,6]
    assert table.group(["outer"]).self_s == 7 - 3 - 1
    assert table.group(["inner"]).self_s == 2
    both = table.group(["outer", "inner"])
    assert (both.calls, both.inclusive_s, both.self_s) == (1, 7.0, 5.0)
    assert table.self_total() == 7.0


def test_phase_masks_split_setup_and_run():
    rec = SpanRecorder()
    f = rec.wrap("f", lambda: None)
    rec.mark(); f(); rec.mark(); f(); f(); rec.mark(); rec.mark(); f()
    setup, run = spans.phase_masks(rec)
    assert setup.tolist() == [True, False, False, False]
    assert run.tolist() == [False, True, True, True]


# -- wrapper lifecycle -----------------------------------------------------------
def _bindings() -> dict:
    """Every name the targets are reachable under, and the object bound."""
    import importlib
    out = {}
    for target in spans.TARGETS:
        module = importlib.import_module(target.module)
        owner, _, name = target.attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            out[(cls, name)] = vars(cls)[name]
            continue
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    out[(mod, attr)] = value
    return out


def test_every_wrapper_is_removed_after_the_traced_run():
    before = _bindings()
    rec = SpanRecorder()
    with rec:
        from repro.core import framework
        assert framework.pack is not before[(framework, "pack")]
        cells.run_cell(_tiny_cell())
    assert len(rec.start) > 0
    for name in ("pack", "detect_sdc", "make_app", "Simulator.run"):
        assert name in rec.names
    after = _bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
    recorded = len(rec.start)
    cells.run_cell(_tiny_cell())
    assert len(rec.start) == recorded


def test_speed_probe_samples_and_then_disarms_its_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 4 * hostspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 4  # entry, exit and at least two alarms
    assert 0 < probe.overhead_s < 4 * hostspeed.PERIOD_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert gc.isenabled()
    with hostspeed.SpeedProbe(period=None) as between:
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(between.samples) == 2 and between.overhead_s == 0.0


def test_reference_seconds_scale_by_mean_speed_after_overhead():
    probe = hostspeed.SpeedProbe()
    probe.samples = [1.0, 0.5]  # reference speed half the time, half speed the other
    probe.overhead_s = 1.0
    assert probe.reference_s(5.0) == pytest.approx(4.0 * 0.75)


def test_speed_is_the_mean_of_reference_over_measured_kernel_time(monkeypatch):
    slower = [2 ** i for i in range(len(hostspeed.KERNELS))]  # 1x, 2x, 4x, ...
    monkeypatch.setattr(hostspeed, "kernel_times", lambda: [
        ref * k for (_, ref), k in zip(hostspeed.KERNELS, slower)])
    assert hostspeed.speed() == pytest.approx(sum(1 / k for k in slower) / len(slower))


def test_traced_and_untraced_digests_match():
    plain = cells.run_cell(_tiny_cell())
    with SpanRecorder():
        traced = cells.run_cell(_tiny_cell())
    assert plain.error is None and plain.digest == traced.digest


# -- correctness checks ------------------------------------------------------------
def test_digest_flags_a_report_with_one_field_altered():
    from repro.core.framework import ACR
    cell = _tiny_cell()
    report = ACR(cell.app, nodes_per_replica=cell.nodes_per_replica,
                 config=cell.config).run()
    digest = cells.report_digest(report)
    report.rework_iterations += 1
    assert cells.report_digest(report) != digest


def test_failed_cells_are_counted_against_attempted():
    ok = cells.CellResult("a", digest="d1")
    raised = cells.CellResult("b", error="raised ValueError: x")
    wrong = cells.CellResult("a", digest="d2")
    passes = [[ok, cells.CellResult("b", digest="d3")], [wrong, raised]]
    failures = cells.check_passes(passes, None)
    attempted = sum(len(p) for p in passes)
    assert (attempted, len(failures)) == (4, 2)
    pinned = cells.check_passes(passes, {"a": "d1", "b": "d3"})
    assert len(pinned) == 2


def test_a_raising_cell_is_recorded_not_raised():
    result = cells.run_cell(_tiny_cell(app="no-such-app"))
    assert result.error.startswith("raised ConfigurationError")


def test_seed_determines_the_inputs():
    a, b = cells.build_cells("fault_mix", 7), cells.build_cells("fault_mix", 7)
    assert [(c.config, c.plan.events) for c in a] == [(c.config, c.plan.events) for c in b]
    c = cells.build_cells("fault_mix", 8)
    assert [x.plan.events for x in a] != [x.plan.events for x in c]
    assert all(len(x.plan.hard_events()) == cells.FAULT_MIX_HARD for x in a)


# -- declared metrics ---------------------------------------------------------------
def test_every_target_belongs_to_exactly_one_group():
    grouped = [n for members in layers.GROUPS.values() for n in members]
    assert sorted(grouped) == sorted(t.name for t in spans.TARGETS)


def test_benchmark_json_declares_the_metrics_the_code_reports():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert per_layer == layers.METRICS
    import run
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(cells.WORKLOADS)


def test_pinned_digests_cover_every_default_seed_cell():
    for workload in cells.WORKLOADS:
        names = [c.name for c in cells.build_cells(workload, cells.DEFAULT_SEED)]
        assert sorted(cells.load_pinned(workload)) == sorted(names)


@pytest.mark.parametrize("hard,sdc", [(2, 1), (0, 2)])
def test_fault_plan_shares_times_and_seeds_the_victims(hard, sdc):
    def plan(seed):
        return cells.fault_plan("w", 3, seed, nodes_per_replica=16, hard_mtbf=3.0,
                                sdc_mtbf=4.0, hard=hard, sdc=sdc)
    a, b = plan(1), plan(2)
    assert (len(a.hard_events()), len(a.sdc_events())) == (hard, sdc)
    assert [(e.time, e.kind) for e in a.events] == [(e.time, e.kind) for e in b.events]
    assert [(e.replica, e.node_id) for e in a.events] != [
        (e.replica, e.node_id) for e in b.events]
    assert a.events == plan(1).events

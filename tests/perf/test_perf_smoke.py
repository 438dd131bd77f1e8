"""Perf-suite smoke tests: run every micro-benchmark once with tiny sizes.

Marked ``perf_smoke`` so they can be selected standalone
(``pytest -m perf_smoke``); they also run in the default suite, so the
benchmarks in ``benchmarks/perf/`` cannot silently rot.
"""

import json

import pytest

from benchmarks.perf.bench_checkpoint import (
    MultiFieldState,
    bench_campaign,
    bench_fletcher,
    bench_pack,
    bench_sdc_scan,
    bench_tiered_persist,
    run_all,
)
from benchmarks.perf.bench_des import (
    bench_event_dispatch,
    bench_message_fanout,
    bench_periodic_timers,
    run_all_des,
)
from benchmarks.perf.run_bench import main as run_bench_main
from repro.pup.puper import PUPer, pack

pytestmark = pytest.mark.perf_smoke

TINY_MIB = 1 / 16  # 64 KiB payloads keep the smoke run fast


class TestMicroBenchmarks:
    def test_bench_pack_reports_speedups(self):
        result = bench_pack(total_mib=TINY_MIB, nfields=4, repeats=1)
        assert result["pack_s"] > 0
        assert result["pack_gib_per_s"] > 0
        assert result["host_speed"] > 0
        assert result["pack_ref_gib_per_s"] == pytest.approx(
            result["pack_gib_per_s"] / result["host_speed"])

    def test_bench_fletcher_reports_throughput(self):
        result = bench_fletcher(total_mib=TINY_MIB, repeats=1)
        for key in ("fletcher32_s", "fletcher64_s", "striped_digest_s",
                    "seed_striped_digest_s"):
            assert result[key] > 0
        # The seed reference shares the gather but adds copies; the current
        # path must never fall behind it (the bench itself also asserts the
        # two digests stay bit-identical).
        assert result["striped_speedup_vs_seed"] > 0

    def test_bench_campaign_parallel_matches_serial(self):
        result = bench_campaign(seeds=2, workers=2, total_iterations=20)
        assert result["summaries_identical"]
        assert result["serial_s"] > 0 and result["parallel_s"] > 0

    def test_bench_tiered_persist_gates_hold_at_smoke_size(self):
        result = bench_tiered_persist(total_mib=TINY_MIB, nshards=4,
                                      repeats=1)
        assert result["persist_atomic_s"] > 0
        assert result["persist_unsafe_s"] > 0
        assert result["restore_s"] > 0 and result["restore_gib_per_s"] > 0
        assert result["sim_safety_overhead"] >= 1.0
        assert result["restore_fallback_correct"]

    def test_bench_sdc_scan_reports_both_modes(self):
        result = bench_sdc_scan(total_mib=1.0, row_kib=64, repeats=1)
        assert (result["nranks"], result["blocks"]) == (16, 4)
        assert result["full_gib_per_s"] > 0
        assert result["checksum_gib_per_s"] > 0

    def test_legacy_pack_matches_zero_copy_pack(self):
        class ChunkPUPer(PUPer):
            """The seed's pack: copy each field, concatenate the copies."""

            def __init__(self):
                self.chunks, self.directory = [], []

            def _handle(self, name, arr, *, rtol, atol, skip_compare):
                offset = sum(len(c) for c in self.chunks)
                self.chunks.append(arr.tobytes())
                self.directory.append((name, str(arr.dtype), arr.shape,
                                       offset, arr.nbytes))
                return arr

        obj = MultiFieldState(4, int(TINY_MIB * (1 << 20)))
        ref = ChunkPUPer()
        obj.pup(ref)
        fast = pack(obj)
        assert bytes(fast.buffer) == b"".join(ref.chunks)
        assert [(f.name, f.dtype, f.shape, f.offset, f.nbytes)
                for f in fast.fields] == ref.directory
        assert pack(obj, like=fast).buffer.tobytes() == b"".join(ref.chunks)


class TestDesBenchmarks:
    """Engine micro-benches: every path must agree on the workload before
    any timing is meaningful (the benches assert it; these keep them honest
    at smoke sizes)."""

    def test_dispatch_engines_process_same_events(self):
        result = bench_event_dispatch(n_events=2_000, depth=128, repeats=1)
        assert result["n_events"] == 2_000 + 128
        assert result["dispatch_s"] > 0
        assert result["dispatch_handle_s"] > 0
        assert result["ref_events_per_s"] == pytest.approx(
            result["events_per_s"] / result["host_speed"])
        assert result["handle_ref_events_per_s"] > 0

    def test_periodic_matches_resched_tick_counts(self):
        result = bench_periodic_timers(n_timers=4, ticks=50, repeats=1)
        assert result["ticks_fired"] == 4 * 50
        assert result["periodic_speedup_vs_resched"] > 0

    def test_message_fanout_counts(self):
        result = bench_message_fanout(n_nodes=4, rounds=10, repeats=1)
        assert result["messages"] == 40
        assert result["fastpath_speedup"] > 0

    def test_run_all_des_quick_covers_every_section(self):
        results = run_all_des(quick=True)
        assert set(results) == {
            "des_dispatch", "des_periodic", "des_messages", "des_acr"}
        assert results["des_acr"]["completed"]


class TestTelemetryNeutral:
    """Disabled telemetry must not cost anything measurable (the obs layer's
    overhead-neutrality contract; see docs/observability.md)."""

    def test_null_tracer_call_overhead_is_trivial(self):
        from time import perf_counter

        from repro.obs import NULL_METRICS, NULL_TRACER

        n = 200_000
        t0 = perf_counter()
        for _ in range(n):
            sid = NULL_TRACER.begin("x", 0.0)
            NULL_TRACER.end(sid, 1.0)
            NULL_METRICS.counter("c").inc()
        elapsed = perf_counter() - t0
        # ~3 no-op calls per loop; anything close to 10 µs/iteration would
        # mean the "no-op" path grew real work.
        assert elapsed / n < 10e-6

    def test_telemetry_does_not_change_event_count(self):
        from repro.harness.experiment import run_acr_experiment
        from repro.obs import MetricsRegistry, SpanTracer

        plain = run_acr_experiment(
            "jacobi3d-charm", nodes_per_replica=2, total_iterations=40,
            checkpoint_interval=2.0, seed=1)
        traced = run_acr_experiment(
            "jacobi3d-charm", nodes_per_replica=2, total_iterations=40,
            checkpoint_interval=2.0, seed=1,
            tracer=SpanTracer(), metrics=MetricsRegistry())
        assert (traced.acr.sim.events_processed
                == plain.acr.sim.events_processed)
        assert traced.report.final_time == plain.report.final_time

    def test_disabled_series_schedules_no_sampling_events(self):
        """``series=None`` (the NULL_SERIES default) must leave the run
        bit-identical: same event count, same final time, no series on the
        report."""
        from repro.harness.experiment import run_acr_experiment

        plain = run_acr_experiment(
            "jacobi3d-charm", nodes_per_replica=2, total_iterations=40,
            checkpoint_interval=2.0, seed=1)
        explicit_null = run_acr_experiment(
            "jacobi3d-charm", nodes_per_replica=2, total_iterations=40,
            checkpoint_interval=2.0, seed=1, series=None)
        assert (explicit_null.acr.sim.events_processed
                == plain.acr.sim.events_processed)
        assert explicit_null.report.final_time == plain.report.final_time
        assert plain.report.series is None
        assert explicit_null.report.series is None

    def test_enabled_series_only_adds_sampling_ticks(self):
        """Sampling is a different (still deterministic) execution: the
        outcome is unchanged and the event count grows by exactly the
        sampling ticks the periodic timer fired."""
        from repro.harness.experiment import run_acr_experiment
        from repro.obs import TimeSeriesRecorder

        plain = run_acr_experiment(
            "jacobi3d-charm", nodes_per_replica=2, total_iterations=40,
            checkpoint_interval=2.0, seed=1)
        series = TimeSeriesRecorder(interval=1.0)
        sampled = run_acr_experiment(
            "jacobi3d-charm", nodes_per_replica=2, total_iterations=40,
            checkpoint_interval=2.0, seed=1, series=series)
        assert sampled.report.final_time == plain.report.final_time
        assert sampled.report.completed == plain.report.completed
        # Every extra event is one sampling tick; the final end-of-run
        # sample happens outside the event loop (and collapses onto the
        # last tick when they coincide), so ticks >= samples - 1.
        extra = (sampled.acr.sim.events_processed
                 - plain.acr.sim.events_processed)
        assert extra >= len(series) - 1 > 0
        assert sampled.report.series is not None
        assert sampled.report.series["times"] == series.times


class TestRunBenchEntryPoint:
    def test_quick_mode_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_checkpoint.json"
        assert run_bench_main(["--quick", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "checkpoint_hot_path"
        assert set(payload["results"]) == {
            "pack", "fletcher", "tiered_persist", "sdc_scan",
            "campaign", "des_dispatch", "des_periodic", "des_messages",
            "des_acr", "obs_stream", "bench_scale", "serve"}
        obs = payload["results"]["obs_stream"]
        assert obs["samples"] > 0
        assert obs["sampled_rate_ratio"] > 0
        tier = payload["results"]["tiered_persist"]
        assert tier["restore_fallback_correct"]
        assert tier["sim_safety_overhead"] >= 1.0
        scale = payload["results"]["bench_scale"]
        assert scale["completed"]
        assert scale["events_speedup_vs_des_acr"] > 0
        serve = payload["results"]["serve"]
        assert serve["all_hits"]
        assert serve["cache_hit_rps"] > 0

    def test_run_all_quick_covers_every_benchmark(self):
        results = run_all(quick=True)
        assert results["campaign"]["summaries_identical"]

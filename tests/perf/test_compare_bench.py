"""Unit tests for the perf regression gate (benchmarks/perf/compare_bench.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "compare_bench", REPO_ROOT / "benchmarks" / "perf" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def _results(pack_ref=4.0, identical=True,
             dispatch_ref=6.0e5, periodic=4.0, fastpath=1.5, striped=1.7,
             parallel=2.5, cpu_count=4, scale_speedup=4.0,
             scale_completed=True,
             safety_overhead=1.6, fallback_correct=True,
             obs_ratio=0.99, serve_rps=1500.0, serve_all_hits=True,
             serve_cpu_count=4, xl_completed=True):
    return {
        "pack": {"pack_ref_gib_per_s": pack_ref, "pack_gib_per_s": 3.0},
        "fletcher": {"fletcher64_gib_per_s": 8.0,
                     "striped_speedup_vs_seed": striped},
        "tiered_persist": {"sim_safety_overhead": safety_overhead,
                           "restore_fallback_correct": fallback_correct,
                           "restore_gib_per_s": 0.9,
                           "sha_share_of_restore": 0.95},
        "campaign": {"summaries_identical": identical,
                     "parallel_speedup": parallel,
                     "cpu_count": cpu_count},
        "des_dispatch": {"ref_events_per_s": dispatch_ref,
                         "handle_ref_events_per_s": 4.0e5,
                         "events_per_s": 8.0e5},
        "des_periodic": {"periodic_speedup_vs_resched": periodic},
        "des_messages": {"fastpath_speedup": fastpath},
        "des_acr": {"events_per_s": 4.0e4,
                    "legacy_equivalent_events_per_s": 1.1e5},
        "obs_stream": {"sampled_rate_ratio": obs_ratio,
                       "sampled_events_per_s": 3.9e4,
                       "unsampled_events_per_s": 4.0e4},
        "bench_scale": {"events_speedup_vs_des_acr": scale_speedup,
                        "completed": scale_completed,
                        "xl_completed": xl_completed,
                        "legacy_equivalent_events_per_s": 4.4e5,
                        "node_iterations_per_s": 1.7e4,
                        "peak_rss_mib": 860.0},
        "serve": {"cache_hit_rps": serve_rps,
                  "all_hits": serve_all_hits,
                  "cpu_count": serve_cpu_count,
                  "p50_ms": 0.6,
                  "p99_ms": 1.4},
    }


class TestCompare:
    def test_identical_runs_pass(self):
        rows, failures = compare_bench.compare(_results(), _results(), 0.30)
        assert failures == []
        assert all(r[-1] in ("ok", "info") for r in rows)

    def test_drop_within_tolerance_passes(self):
        fresh = _results(striped=1.7 * 0.75)  # -25% on a 30% gate
        _, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert failures == []

    def test_drop_beyond_tolerance_fails(self):
        fresh = _results(striped=1.7 * 0.5)  # -50% on a 30% gate
        rows, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert len(failures) == 1
        assert "fletcher.striped_speedup_vs_seed" in failures[0]
        assert any(r[-1] == "REGRESSION" for r in rows)

    def test_improvement_never_fails(self):
        fresh = _results(pack_ref=40.0, dispatch_ref=6.0e6, striped=17.0)
        _, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert failures == []

    def test_missing_gated_metric_fails(self):
        fresh = _results()
        del fresh["fletcher"]["striped_speedup_vs_seed"]
        _, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert any("missing" in f for f in failures)

    def test_false_flag_fails(self):
        fresh = _results(identical=False)
        _, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert any("summaries_identical" in f for f in failures)

    def test_informational_metrics_never_fail(self):
        fresh = _results()
        fresh["fletcher"]["fletcher64_gib_per_s"] = 0.001
        fresh["des_acr"]["events_per_s"] = 1.0
        _, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert failures == []

    def test_des_dispatch_regression_fails(self):
        # Within tolerance of the baseline but below the absolute floor.
        fresh = _results(dispatch_ref=6.0e5 * 0.6)
        _, failures = compare_bench.compare(
            _results(dispatch_ref=5.0e5), fresh, 0.30)
        assert any("des_dispatch.ref_events_per_s" in f
                   and "below required floor" in f for f in failures)

    @pytest.mark.parametrize("metric, legacy, current", [
        # The highest reading of the replaced path and the lowest of the
        # current one in ten rounds on a 2-vCPU host (see compare_bench).
        ("pack_ref", 1.74, 3.65),
        ("dispatch_ref", 3.15e5, 5.05e5),
    ])
    def test_host_normalised_floor_separates_the_paths(self, metric, legacy,
                                                       current):
        name = {"pack_ref": "pack.pack_ref_gib_per_s",
                "dispatch_ref": "des_dispatch.ref_events_per_s"}[metric]
        _, failures = compare_bench.compare(
            _results(), _results(**{metric: legacy}), 0.30)
        assert len(failures) == 1
        assert name in failures[0] and "below required floor" in failures[0]
        _, failures = compare_bench.compare(
            _results(), _results(**{metric: current}), 0.30)
        assert failures == []

    def test_single_cpu_baseline_refused(self):
        # Every CPU-gated row would be skipped against a 1-CPU baseline.
        base = _results(cpu_count=1, serve_cpu_count=1)
        rows, failures = compare_bench.compare(base, _results(), 0.30)
        assert len(failures) == 1
        assert "baseline" in failures[0] and "cpu_count" in failures[0]
        assert any(r[-1] == "REFUSED" for r in rows)
        # One multi-core section is enough for the baseline to count.
        _, failures = compare_bench.compare(
            _results(cpu_count=1), _results(), 0.30)
        assert failures == []

    def test_parallel_speedup_gated_on_multicore(self):
        fresh = _results(parallel=2.5 * 0.5)  # -50% on a 30% gate
        _, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert any("campaign.parallel_speedup" in f for f in failures)

    def test_parallel_speedup_skipped_on_single_cpu(self):
        # Same regression, but either run saw one core: the clamp makes
        # both campaign paths serial, so the ratio is noise — never gated.
        for base_cpus, fresh_cpus in ((1, 1), (1, 4), (4, 1)):
            base = _results(cpu_count=base_cpus)
            fresh = _results(parallel=0.4, cpu_count=fresh_cpus)
            rows, failures = compare_bench.compare(base, fresh, 0.30)
            assert failures == []
            assert any("skipped" in str(r[-1]) for r in rows
                       if r[0] == "campaign.parallel_speedup")

    def test_scale_speedup_regression_fails(self):
        fresh = _results(scale_speedup=4.0 * 0.5)  # -50% on a 30% gate
        _, failures = compare_bench.compare(_results(), fresh, 0.30)
        assert any("bench_scale.events_speedup_vs_des_acr" in f
                   for f in failures)

    def test_scale_speedup_absolute_floor(self):
        # Within tolerance of a weak baseline but below the acceptance bar:
        # the floor is absolute, not relative.
        base = _results(scale_speedup=3.1)
        fresh = _results(scale_speedup=2.5)
        _, failures = compare_bench.compare(base, fresh, 0.30)
        assert any("below required floor 3.0" in f for f in failures)
        # At or above the floor (and within tolerance) passes.
        _, failures = compare_bench.compare(base, _results(scale_speedup=3.0),
                                            0.30)
        assert failures == []

    def test_tiered_persist_safety_overhead_floor(self):
        # A modeled atomic write cheaper than the unsafe one means the tier
        # cost model broke — gated absolutely, not just vs the baseline.
        fresh = _results(safety_overhead=0.9)
        _, failures = compare_bench.compare(
            _results(safety_overhead=0.95), fresh, 0.30)
        assert any("below required floor 1.0" in f for f in failures)

    def test_obs_stream_sampling_overhead_floor(self):
        # Sampling at the default cadence costing >5% of engine throughput
        # is a regression regardless of what the baseline machine measured.
        _, failures = compare_bench.compare(
            _results(), _results(obs_ratio=0.90), 0.30)
        assert any("obs_stream.sampled_rate_ratio" in f
                   and "below required floor 0.95" in f for f in failures)
        _, failures = compare_bench.compare(
            _results(), _results(obs_ratio=0.96), 0.30)
        assert failures == []

    def test_tiered_persist_fallback_flag_gated(self):
        _, failures = compare_bench.compare(
            _results(), _results(fallback_correct=False), 0.30)
        assert any("tiered_persist.restore_fallback_correct" in f
                   for f in failures)

    def test_serve_rps_floor_on_multicore(self):
        # Within tolerance of a weak baseline but below the absolute bar:
        # the served cache-hit path must clear 1000 req/s outright.
        _, failures = compare_bench.compare(
            _results(serve_rps=1100.0), _results(serve_rps=900.0), 0.30)
        assert any("serve.cache_hit_rps" in f
                   and "below required floor 1000" in f for f in failures)
        _, failures = compare_bench.compare(
            _results(), _results(serve_rps=1000.0), 0.30)
        assert failures == []

    def test_serve_rps_floor_skipped_on_single_cpu(self):
        # One core: client and server contend for the same CPU, so the
        # rate is scheduler noise — reported, never gated.
        rows, failures = compare_bench.compare(
            _results(), _results(serve_rps=400.0, serve_cpu_count=1), 0.30)
        assert failures == []
        assert any("skipped" in str(r[-1]) for r in rows
                   if str(r[0]).startswith("serve.cache_hit_rps"))

    def test_serve_all_hits_flag_gated(self):
        _, failures = compare_bench.compare(
            _results(), _results(serve_all_hits=False), 0.30)
        assert any("serve.all_hits" in f for f in failures)

    def test_scale_flags_gated(self):
        for kwargs, name in (
            ({"scale_completed": False}, "bench_scale.completed"),
            ({"xl_completed": False}, "bench_scale.xl_completed"),
        ):
            _, failures = compare_bench.compare(
                _results(), _results(**kwargs), 0.30)
            assert any(name in f for f in failures)


class TestMain:
    def _write(self, path, results):
        path.write_text(json.dumps({"results": results}))
        return path

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _results())
        new = self._write(tmp_path / "new.json", _results())
        assert compare_bench.main(
            ["--baseline", str(base), "--new", str(new)]) == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _results())
        new = self._write(tmp_path / "new.json", _results(striped=0.5))
        assert compare_bench.main(
            ["--baseline", str(base), "--new", str(new)]) == 1
        assert "regression" in capsys.readouterr().err

    def test_exit_one_on_single_cpu_baseline(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _results(
            cpu_count=1, serve_cpu_count=1))
        new = self._write(tmp_path / "new.json", _results())
        assert compare_bench.main(
            ["--baseline", str(base), "--new", str(new)]) == 1
        assert "multi-core" in capsys.readouterr().err

    def test_gated_metrics_exist_in_committed_baseline(self):
        baseline = json.loads(
            (REPO_ROOT / "BENCH_checkpoint.json").read_text())["results"]
        minimums = tuple((section, metric) for section, metric, _
                         in compare_bench.GATED_MINIMUMS)
        for section, metric in (compare_bench.GATED_RATIOS
                                + compare_bench.GATED_FLAGS + minimums):
            assert compare_bench._lookup(baseline, section, metric) is not None, (
                f"committed baseline lacks gated metric {section}.{metric}"
            )

    def test_committed_baseline_is_multicore(self):
        baseline = json.loads(
            (REPO_ROOT / "BENCH_checkpoint.json").read_text())["results"]
        sections = {row[0] for row in compare_bench.CPU_GATED_MINIMUMS
                    + compare_bench.CPU_GATED_RATIOS}
        assert any((compare_bench._lookup(baseline, s, "cpu_count") or 1) > 1
                   for s in sections)


class TestTrend:
    """The perfbench trajectory printed from a BENCH_history.jsonl."""

    @staticmethod
    def _line(commit, rate, setup, rss):
        return {"commit": commit, "workloads": {
            "ckpt_bulk": {"node_iters_per_s": rate, "setup_s": setup,
                          "peak_rss_mib": rss, "failed": 0}}}

    def _history(self, tmp_path):
        lines = [self._line("a" * 40, 1000.0, 0.04, 180.0),
                 self._line("b" * 40, 1500.0, 0.03, 170.0),
                 self._line("c" * 40, 1800.0, 0.03, 160.0)]
        path = tmp_path / "history.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return path

    def test_first_previous_and_latest_per_metric(self, tmp_path):
        history = compare_bench.load_history(self._history(tmp_path))
        rows = {row[0]: row[1:] for row in compare_bench.trend_rows(history)}
        assert rows == {
            "ckpt_bulk.node_iters_per_s": [1000.0, 1500.0, 1800.0, "+20.0%"],
            "ckpt_bulk.setup_s": [0.04, 0.03, 0.03, "+0.0%"],
            "ckpt_bulk.peak_rss_mib": [180.0, 170.0, 160.0, "-5.9%"],
        }

    def test_one_line_has_no_previous(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(self._line("a" * 40, 1000.0, 0.04, 180.0)))
        [row, *_] = compare_bench.trend_rows(compare_bench.load_history(path))
        assert row == ["ckpt_bulk.node_iters_per_s", 1000.0, None, 1000.0, "-"]

    def test_main_prints_the_trend_and_it_never_fails(self, tmp_path, capsys):
        base, new = tmp_path / "base.json", tmp_path / "new.json"
        for path in (base, new):
            path.write_text(json.dumps({"results": _results()}))
        history = self._history(tmp_path)
        assert compare_bench.main(["--baseline", str(base), "--new", str(new),
                                   "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "perfbench trend: 3 lines" in out
        assert "(aaaaaaa / bbbbbbb / ccccccc)" in out
        assert "ckpt_bulk.peak_rss_mib" in out

    def test_lines_of_another_host_are_left_out(self, tmp_path, capsys):
        def on(line, cpus):
            return {**line, "host": {"cpu_count": cpus, "python": "3.11.7",
                                     "numpy": "2.4.6"}}

        lines = [on(self._line("a" * 40, 9000.0, 0.01, 90.0), 8),
                 on(self._line("b" * 40, 1500.0, 0.03, 170.0), 2),
                 on(self._line("c" * 40, 1800.0, 0.03, 160.0), 2)]
        history, why = compare_bench.same_host(lines)
        assert history == lines[1:]
        assert why == ("left out 1 of 3 lines of another host (cpu_count=8) "
                       "than the latest line's (cpu_count=2, python=3.11.7, "
                       "numpy=2.4.6)")
        rows = {row[0]: row[1:] for row in compare_bench.trend_rows(history)}
        assert rows["ckpt_bulk.node_iters_per_s"] == [1500.0, 1500.0, 1800.0,
                                                      "+20.0%"]

        base, new = tmp_path / "base.json", tmp_path / "new.json"
        for path in (base, new):
            path.write_text(json.dumps({"results": _results()}))
        path = tmp_path / "history.jsonl"
        path.write_text("".join(json.dumps(line) + "\n"
                                for line in (lines[0], lines[2])))
        # Only the latest line is left on its host: the reason is printed
        # instead of a trend, and the gate still passes.
        assert compare_bench.main(["--baseline", str(base), "--new", str(new),
                                   "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "perfbench trend: left out 1 of 2 lines" in out
        assert "ckpt_bulk.node_iters_per_s" not in out
        assert "perf gate passed" in out

    def test_missing_history_is_empty(self, tmp_path):
        assert compare_bench.load_history(tmp_path / "absent.jsonl") == []

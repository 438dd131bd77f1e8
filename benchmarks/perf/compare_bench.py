#!/usr/bin/env python
"""Gate a fresh perf-benchmark run against the committed baseline.

Usage::

    python benchmarks/perf/run_bench.py --mib 16 --repeats 3 --out bench_ci.json
    python benchmarks/perf/compare_bench.py \
        --baseline BENCH_checkpoint.json --new bench_ci.json --tolerance 0.30

Three kinds of metric are gated.  Within-run speedup ratios regress when
they drop more than ``--tolerance`` below the baseline; improvements never
fail.  Rates scaled to the reference host of ``perfbench/hostspeed.py`` and
within-run ratios with a meaning of their own must clear an absolute floor.
Correctness flags must stay true.  Raw seconds, GiB/s and events/s vary
with the machine, so they are reported but never fail the gate.

A baseline recorded on one CPU is refused: every CPU-gated row would be
skipped against it.  Exit code 1 on regression or on such a baseline, with a
readable delta table either way.

After the gate, each perfbench end-to-end metric's trend per workload is
printed from ``BENCH_history.jsonl`` (``--history``): its value in the
first, the previous and the latest line.  Only lines recorded on the latest
line's host (same ``cpu_count``, ``python`` and ``numpy``) are compared; the
others are left out with the reason printed.  The trend never fails the
gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.report import format_table  # noqa: E402

#: (section, metric) pairs gated by the tolerance — all higher-is-better
#: ratios, stable across machines and payload sizes.
GATED_RATIOS = (
    ("fletcher", "striped_speedup_vs_seed"),
    ("tiered_persist", "sim_safety_overhead"),
    ("des_periodic", "periodic_speedup_vs_resched"),
    ("des_messages", "fastpath_speedup"),
    ("bench_scale", "events_speedup_vs_des_acr"),
)

#: (section, metric, floor) metrics that must clear an absolute bar —
#: within-run dimensionless ratios, or rates divided by the host speed of
#: ``perfbench/hostspeed.py`` sampled around the timed region, so the floor
#: is machine-independent.
GATED_MINIMUMS = (
    # Ten rounds on a 2-vCPU host read 3.65-4.94 ref-GiB/s for
    # ``pack(like=)`` on 64 MiB in 16 fields, and 1.07-1.74 for the
    # chunk-and-concatenate pack it replaced (one copy per field, then the
    # concatenation).  A floor between the two catches a second copy.
    ("pack", "pack_ref_gib_per_s", 2.2),
    # The same rounds read 505k-771k ref-events/s for ``Simulator.post`` and
    # 168k-315k for the dataclass-entry engine (a handle and a dataclass per
    # event, Python-level ``__lt__``) the tuple heap replaced.
    ("des_dispatch", "ref_events_per_s", 400_000.0),
    ("bench_scale", "events_speedup_vs_des_acr", 3.0),
    # The atomic protocol can never be cheaper than streaming straight to
    # the final location — a ratio below 1 means the cost model broke.
    ("tiered_persist", "sim_safety_overhead", 1.0),
    # Streaming telemetry at the default cadence must stay within ~5% of
    # the unsampled engine throughput — observability is opt-in AND cheap.
    ("obs_stream", "sampled_rate_ratio", 0.95),
)

#: (section, metric) booleans that must stay true.
GATED_FLAGS = (
    ("campaign", "summaries_identical"),
    ("tiered_persist", "restore_fallback_correct"),
    ("bench_scale", "completed"),
    # The same engine at 2×128Ki nodes, in one process.
    ("bench_scale", "xl_completed"),
    # Every benchmark submit must have been a pure cache hit, or the
    # serve.cache_hit_rps measurement is of the wrong path.
    ("serve", "all_hits"),
)

#: Absolute floors gated only on multi-core machines.  The served cache-hit
#: path is pure hashing + one socket round-trip, but on a single core the
#: client and server threads contend for the same CPU and the rate is
#: dominated by scheduler noise.
CPU_GATED_MINIMUMS = (
    ("serve", "cache_hit_rps", 1000.0),
)

#: Gated only when the machine can actually go parallel: on a 1-CPU runner
#: the worker clamp makes both paths serial and the ratio is pure noise.
CPU_GATED_RATIOS = (
    ("campaign", "parallel_speedup"),
)

#: Machine-dependent metrics shown for context only.
INFORMATIONAL = (
    ("pack", "pack_gib_per_s"),
    ("fletcher", "fletcher64_gib_per_s"),
    ("tiered_persist", "restore_gib_per_s"),
    ("tiered_persist", "sha_share_of_restore"),
    ("sdc_scan", "full_gib_per_s"),
    ("sdc_scan", "checksum_gib_per_s"),
    ("des_dispatch", "events_per_s"),
    ("des_dispatch", "handle_ref_events_per_s"),
    ("des_acr", "events_per_s"),
    ("des_acr", "legacy_equivalent_events_per_s"),
    ("obs_stream", "sampled_events_per_s"),
    ("obs_stream", "unsampled_events_per_s"),
    ("bench_scale", "legacy_equivalent_events_per_s"),
    ("bench_scale", "node_iterations_per_s"),
    ("bench_scale", "peak_rss_mib"),
    # The garbage collector's work per phase (see bench_scale.py).
    *(("bench_scale", f"{phase}_{field}")
      for phase in ("construct", "run")
      for field in ("gc_gen0", "gc_gen1", "gc_gen2", "gc_s",
                    "tracked_per_node")),
    ("serve", "cache_hit_rps"),
    ("serve", "p50_ms"),
    ("serve", "p99_ms"),
)


#: perfbench's end-to-end metrics, as ``bench_history.py`` records them.
TREND_METRICS = ("node_iters_per_s", "setup_s", "peak_rss_mib")

#: The fields of a history line's ``host`` that must match for two lines'
#: metrics to be comparable.
HOST_FINGERPRINT = ("cpu_count", "python", "numpy")


def load_history(path: Path) -> list[dict]:
    """The lines of a ``BENCH_history.jsonl``, oldest first ([] if absent)."""
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def _fingerprint(line: dict) -> dict:
    host = line.get("host") or {}
    return {key: host.get(key) for key in HOST_FINGERPRINT}


def same_host(history: list[dict]) -> tuple[list[dict], str | None]:
    """The history lines recorded on the latest line's host, and why the
    others were left out (None when none was)."""
    if not history:
        return [], None
    latest = _fingerprint(history[-1])
    others = [line for line in history if _fingerprint(line) != latest]
    if not others:
        return history, None
    differing = sorted({f"{key}={value}" for line in others
                        for key, value in _fingerprint(line).items()
                        if value != latest[key]})
    kept = [line for line in history if _fingerprint(line) == latest]
    return kept, (
        f"left out {len(others)} of {len(history)} lines of "
        f"another host ({', '.join(differing)}) than the latest line's "
        f"({', '.join(f'{k}={v}' for k, v in latest.items())})")


def trend_lines(history: list[dict]) -> tuple:
    """The first, previous and latest history line (previous is None when
    there is only one)."""
    return history[0], history[-2] if len(history) > 1 else None, history[-1]


def trend_rows(history: list[dict]) -> list[list]:
    """One row per workload and end-to-end metric of the latest history
    line: the metric in the first, the previous and the latest line, and
    the latest against the previous."""
    ends = trend_lines(history)
    rows = []
    for workload in sorted(ends[-1].get("workloads", {})):
        for metric in TREND_METRICS:
            values = [None if line is None else
                      line.get("workloads", {}).get(workload, {}).get(metric)
                      for line in ends]
            old, new = values[1], values[2]
            delta = (f"{100.0 * (new - old) / old:+.1f}%"
                     if old and new is not None else "-")
            rows.append([f"{workload}.{metric}",
                         *[None if v is None else round(v, 3) for v in values],
                         delta])
    return rows


def _lookup(results: dict, section: str, metric: str):
    return (results.get(section) or {}).get(metric)


def compare(baseline: dict, fresh: dict, tolerance: float) -> tuple[list, list]:
    """(table_rows, failures) for a baseline/fresh results comparison."""
    rows: list[list] = []
    failures: list[str] = []

    if all((_lookup(baseline, row[0], "cpu_count") or 1) <= 1
           for row in CPU_GATED_MINIMUMS + CPU_GATED_RATIOS):
        failures.append("baseline: recorded at cpu_count<=1 in every "
                        "CPU-gated section; regenerate it on a multi-core host")
        rows.append(["baseline cpu_count", 1, None, "-", "REFUSED"])

    def gate_ratio(section: str, metric: str) -> None:
        name = f"{section}.{metric}"
        base = _lookup(baseline, section, metric)
        new = _lookup(fresh, section, metric)
        if base is None or new is None:
            failures.append(f"{name}: missing from "
                            f"{'baseline' if base is None else 'new run'}")
            rows.append([name, base, new, "-", "MISSING"])
            return
        delta_pct = 100.0 * (new - base) / base if base else 0.0
        regressed = new < base * (1.0 - tolerance)
        status = "REGRESSION" if regressed else "ok"
        if regressed:
            failures.append(
                f"{name}: {new:.3f} is {-delta_pct:.1f}% below baseline "
                f"{base:.3f} (tolerance {100.0 * tolerance:.0f}%)"
            )
        rows.append([name, round(base, 3), round(new, 3),
                     f"{delta_pct:+.1f}%", status])

    for section, metric in GATED_RATIOS:
        gate_ratio(section, metric)
    for section, metric, floor in GATED_MINIMUMS:
        name = f"{section}.{metric}"
        new = _lookup(fresh, section, metric)
        ok = new is not None and new >= floor
        if not ok:
            failures.append(f"{name}: {new!r} below required floor {floor}")
        rows.append([f"{name} >= {floor}", floor,
                     None if new is None else round(new, 3), "-",
                     "ok" if ok else "REGRESSION"])
    for section, metric, floor in CPU_GATED_MINIMUMS:
        name = f"{section}.{metric}"
        new = _lookup(fresh, section, metric)
        cpus = _lookup(fresh, section, "cpu_count") or 1
        if cpus <= 1:
            rows.append([f"{name} >= {floor}", floor,
                         None if new is None else round(new, 3), "-",
                         "skipped (cpu_count==1)"])
            continue
        ok = new is not None and new >= floor
        if not ok:
            failures.append(f"{name}: {new!r} below required floor {floor}")
        rows.append([f"{name} >= {floor}", floor,
                     None if new is None else round(new, 3), "-",
                     "ok" if ok else "REGRESSION"])
    for section, metric in CPU_GATED_RATIOS:
        # A parallel ratio means nothing unless both runs had cores to use.
        cpus = min(_lookup(baseline, section, "cpu_count") or 1,
                   _lookup(fresh, section, "cpu_count") or 1)
        if cpus > 1:
            gate_ratio(section, metric)
        else:
            base = _lookup(baseline, section, metric)
            new = _lookup(fresh, section, metric)
            rows.append([f"{section}.{metric}",
                         None if base is None else round(base, 3),
                         None if new is None else round(new, 3),
                         "-", "skipped (cpu_count==1)"])
    for section, metric in GATED_FLAGS:
        name = f"{section}.{metric}"
        base = _lookup(baseline, section, metric)
        new = _lookup(fresh, section, metric)
        ok = bool(new)
        if not ok:
            failures.append(f"{name}: expected true, got {new!r}")
        rows.append([name, base, new, "-", "ok" if ok else "REGRESSION"])
    for section, metric in INFORMATIONAL:
        name = f"{section}.{metric}"
        base = _lookup(baseline, section, metric)
        new = _lookup(fresh, section, metric)
        if base is None or new is None:
            continue
        delta_pct = 100.0 * (new - base) / base if base else 0.0
        rows.append([name, round(base, 3), round(new, 3),
                     f"{delta_pct:+.1f}%", "info"])
    return rows, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        default=REPO_ROOT / "BENCH_checkpoint.json")
    parser.add_argument("--new", type=Path, required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop below baseline "
                             "(default 0.30)")
    parser.add_argument("--history", type=Path,
                        default=REPO_ROOT / "BENCH_history.jsonl",
                        help="perfbench trajectory to print trends from")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())["results"]
    fresh = json.loads(args.new.read_text())["results"]
    rows, failures = compare(baseline, fresh, args.tolerance)
    print(format_table(
        ["metric", "baseline", "new", "delta", "status"], rows,
        title=f"perf gate: {args.new} vs {args.baseline} "
              f"(tolerance {100.0 * args.tolerance:.0f}%)"))
    history, left_out = same_host(load_history(args.history))
    if left_out:
        print(f"\nperfbench trend: {left_out}")
    # When every other line was left out, the latest compares with nothing.
    if len(history) > 1 or (history and not left_out):
        commits = " / ".join(line.get("commit", "?")[:7]
                             for line in trend_lines(history) if line)
        print()
        print(format_table(
            ["metric", "first", "previous", "latest", "latest vs previous"],
            trend_rows(history),
            title=f"perfbench trend: {len(history)} lines of {args.history} "
                  f"({commits})"))
    if failures:
        print(f"\n{len(failures)} perf regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

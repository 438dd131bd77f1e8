"""Command-line interface: run experiments and regenerate paper figures.

Usage (also via ``python -m repro``):

    python -m repro apps
    python -m repro run --app jacobi3d-charm --nodes 4 --scheme strong \
        --iterations 200 --hard-mtbf 30 --sdc-mtbf 50 --seed 1
    python -m repro run --trace-out t.json --metrics-out m.json
    python -m repro report --metrics m.json --trace t.json
    python -m repro model --sockets 16384 --delta 15 --fit 100
    python -m repro figure fig8 --apps jacobi3d-charm leanmd
    python -m repro figure fig12 --nodes 8 --horizon 600
    python -m repro campaign --seeds 32 --workers 8 --hard-mtbf 20
    python -m repro store ls
    python -m repro store gc
    python -m repro golden check
    python -m repro chaos --seeds 500 --workers 8
    python -m repro chaos --replay repro-seed42.json
    python -m repro serve --port 8737 --workers 4
    python -m repro submit --server 127.0.0.1:8737 --seeds 16 --wait
    python -m repro jobs --server 127.0.0.1:8737
    python -m repro cancel --server 127.0.0.1:8737 job-000000
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.apps.registry import MINIAPP_NAMES, descriptor
from repro.harness.experiment import run_acr_experiment
from repro.harness.figures import (
    fig6_data,
    fig8_data,
    fig9_fig11_data,
    fig10_data,
    fig12_data,
)
from repro.harness.report import format_table
from repro.model.params import ModelParams
from repro.model.schemes import ResilienceScheme, optimal_tau, solve_scheme
from repro.model.vulnerability import undetected_sdc_probability
from repro.util.units import HOURS, YEARS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACR (SC'13) reproduction: automatic checkpoint/restart "
                    "for soft and hard error protection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the paper's mini-applications")

    run_p = sub.add_parser("run", help="run an application under ACR")
    run_p.add_argument("--app", default="jacobi3d-charm", choices=MINIAPP_NAMES)
    run_p.add_argument("--nodes", type=int, default=4,
                       help="nodes per replica")
    run_p.add_argument("--scheme", default="strong",
                       choices=[s.value for s in ResilienceScheme])
    run_p.add_argument("--mapping", default="default",
                       choices=["default", "column", "mixed"])
    run_p.add_argument("--iterations", type=int, default=200)
    run_p.add_argument("--interval", type=float, default=5.0,
                       help="checkpoint period in simulated seconds")
    run_p.add_argument("--hard-mtbf", type=float, default=None,
                       help="inject Poisson hard faults at this MTBF (s)")
    run_p.add_argument("--sdc-mtbf", type=float, default=None,
                       help="inject Poisson bit flips at this MTBF (s)")
    run_p.add_argument("--checksum", action="store_true",
                       help="compare Fletcher digests instead of full state")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--tiers", default="off",
                       choices=["off", "2", "3", "both"],
                       help="durable checkpoint tiers behind the in-memory "
                            "store (2=node-local, 3=shared FS)")
    run_p.add_argument("--tier-protocol", default="atomic-dirsync",
                       choices=["atomic-dirsync", "unsafe"],
                       help="group-write crash-consistency protocol")
    run_p.add_argument("--tier2-interval", type=float, default=None,
                       help="level-2 persist period (s); default: Daly plan")
    run_p.add_argument("--tier3-interval", type=float, default=None,
                       help="level-3 persist period (s); default: Daly plan")
    run_p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the run's phase spans as a Chrome "
                            "trace_event JSON (load in Perfetto)")
    run_p.add_argument("--trace-format", default="chrome",
                       choices=["chrome", "jsonl"],
                       help="trace file format (default: chrome)")
    run_p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the run's metrics-registry snapshot as JSON")
    run_p.add_argument("--series-out", default=None, metavar="FILE",
                       help="sample the metrics registry periodically and "
                            "write the time series (arms an in-sim sampling "
                            "timer; the run stays deterministic but is a "
                            "different execution than an unsampled one)")
    run_p.add_argument("--series-interval", type=float, default=None,
                       metavar="S",
                       help="sampling period in simulated seconds "
                            "(default: 5.0)")
    run_p.add_argument("--series-format", default="json",
                       choices=["json", "jsonl", "openmetrics"],
                       help="series file format (openmetrics exports the "
                            "final sample as Prometheus text)")

    model_p = sub.add_parser("model", help="query the Section-5 model")
    model_p.add_argument("--sockets", type=int, default=16384,
                         help="sockets per replica")
    model_p.add_argument("--delta", type=float, default=15.0,
                         help="checkpoint time (s)")
    model_p.add_argument("--fit", type=float, default=100.0,
                         help="SDC rate per socket (FIT)")
    model_p.add_argument("--mtbf-years", type=float, default=50.0,
                         help="per-socket hard-error MTBF (years)")
    model_p.add_argument("--tiers", action="store_true",
                         help="also print the durable-tier interval plan")
    model_p.add_argument("--hours", type=float, default=24.0,
                         help="job length (hours)")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure's data")
    fig_p.add_argument("name",
                       choices=["fig6", "fig7", "fig8", "fig9", "fig10",
                                "fig11", "fig12"])
    fig_p.add_argument("--plot", action="store_true",
                       help="render terminal charts instead of raw tables")
    fig_p.add_argument("--apps", nargs="+", default=None,
                       help="restrict to these mini-apps (fig8/9/10/11)")
    fig_p.add_argument("--nodes", type=int, default=8,
                       help="nodes per replica (fig12)")
    fig_p.add_argument("--horizon", type=float, default=600.0,
                       help="run length in simulated seconds (fig12)")
    fig_p.add_argument("--failures", type=int, default=12,
                       help="expected failure count (fig12)")
    fig_p.add_argument("--seed", type=int, default=3)

    sub.add_parser("table2", help="print Table 2 (mini-app configurations)")

    report_p = sub.add_parser(
        "report", help="render saved telemetry (trace / metrics JSON)")
    report_p.add_argument("--metrics", default=None, metavar="FILE",
                          help="metrics JSON from `repro run --metrics-out`")
    report_p.add_argument("--trace", default=None, metavar="FILE",
                          help="Chrome trace JSON from `repro run --trace-out`")
    report_p.add_argument("--series", default=None, metavar="FILE",
                          help="time-series JSON from "
                               "`repro run --series-out`")
    report_p.add_argument("--format", default="table",
                          choices=["table", "json"],
                          help="render tables (default) or one JSON document")

    campaign_p = sub.add_parser(
        "campaign",
        help="run a resumable multi-seed campaign (cache-backed sweep)")
    _add_sweep_flags(campaign_p)
    campaign_p.add_argument("--workers", type=int, default=None,
                            help="process-pool width (default: serial)")
    _add_progress_flags(campaign_p)
    _add_cache_flags(campaign_p)

    store_p = sub.add_parser(
        "store", help="inspect / maintain the campaign result store")
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("ls", "list cached cells"),
        ("gc", "drop cells computed by a different source tree"),
        ("verify", "check every record parses and sits at its address"),
    ):
        p = store_sub.add_parser(name, help=help_text)
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            ".repro-cache)")
        if name == "gc":
            p.add_argument("--wipe", action="store_true",
                           help="remove every cell, not just stale ones")

    golden_p = sub.add_parser(
        "golden",
        help="check / update the committed Figs. 8-11 summary digests")
    golden_p.add_argument("action", choices=["check", "update"])
    golden_p.add_argument("--dir", default="golden",
                          help="directory of committed digests")

    chaos_p = sub.add_parser(
        "chaos", help="fuzz fault schedules against the protocol invariants")
    chaos_p.add_argument("--seeds", type=int, default=100,
                         help="number of fuzzer seeds (schedules) to run")
    chaos_p.add_argument("--workers", type=int, default=None,
                         help="process-pool width (default: serial)")
    chaos_p.add_argument("--app", default="jacobi3d-charm",
                         choices=MINIAPP_NAMES)
    chaos_p.add_argument("--no-shrink", action="store_true",
                         help="skip ddmin minimization of failing schedules")
    chaos_p.add_argument("--out", default=None, metavar="DIR",
                         help="write minimized repro plans as JSON into DIR")
    chaos_p.add_argument("--replay", default=None, metavar="PLAN.json",
                         help="replay one serialized schedule — or a "
                              "flight-recorder artifact, whose embedded "
                              "schedule is replayed — instead of fuzzing")
    chaos_p.add_argument("--flight-dir", default=None, metavar="DIR",
                         help="arm a flight recorder on every run; failing "
                              "seeds dump their event tail + repro plan here "
                              "(default: the result store's quarantine/ "
                              "when caching is on)")
    _add_progress_flags(chaos_p)
    _add_cache_flags(chaos_p, default_off=True)

    serve_p = sub.add_parser(
        "serve",
        help="run the multi-tenant campaign server over the result store")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8737,
                         help="listen port; 0 asks the OS for an ephemeral "
                              "one (the bound port is printed on startup)")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="simulation worker width (default: cpu count)")
    serve_p.add_argument("--queue-limit", type=int, default=None,
                         help="global bound on queued cells (backpressure)")
    serve_p.add_argument("--tenant-quota", type=int, default=None,
                         help="per-tenant bound on outstanding cells")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result-store root (default: $REPRO_CACHE_DIR "
                              "or .repro-cache)")

    submit_p = sub.add_parser(
        "submit", help="submit a sweep to a running campaign server")
    _add_server_flag(submit_p)
    submit_p.add_argument("--tenant", default="default")
    submit_p.add_argument("--priority", type=int, default=None,
                          help="job priority (lower runs sooner)")
    submit_p.add_argument("--wait", action="store_true",
                          help="block until the job finishes, then print "
                               "its campaign summary")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          help="--wait deadline in seconds")
    _add_sweep_flags(submit_p)

    jobs_p = sub.add_parser(
        "jobs", help="list jobs on a running campaign server")
    _add_server_flag(jobs_p)
    jobs_p.add_argument("--tenant", default=None,
                        help="only this tenant's jobs")
    jobs_p.add_argument("--json", action="store_true",
                        help="print raw JSON instead of a table")

    cancel_p = sub.add_parser(
        "cancel", help="cancel a job on a running campaign server")
    _add_server_flag(cancel_p)
    cancel_p.add_argument("job_id")
    return parser


#: The sweep axes ``repro campaign`` and ``repro submit`` share: each flag,
#: the ``run_acr_experiment`` keyword it sets, and its argparse options.
_SWEEP_AXES: tuple[tuple[str, str, dict], ...] = (
    ("--nodes", "nodes_per_replica",
     {"type": int, "default": 4, "help": "nodes per replica"}),
    ("--scheme", "scheme",
     {"default": "strong", "choices": [s.value for s in ResilienceScheme]}),
    ("--mapping", "mapping",
     {"default": "default", "choices": ["default", "column", "mixed"]}),
    ("--checksum", "use_checksum", {"action": "store_true"}),
    ("--iterations", "total_iterations", {"type": int, "default": 200}),
    ("--interval", "checkpoint_interval",
     {"type": float, "default": 5.0,
      "help": "checkpoint period in simulated seconds"}),
    ("--hard-mtbf", "hard_mtbf", {"type": float, "default": None}),
    ("--sdc-mtbf", "sdc_mtbf", {"type": float, "default": None}),
    ("--horizon", "horizon", {"type": float, "default": 10_000.0}),
    ("--spare-nodes", "spare_nodes", {"type": int, "default": 64}),
)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """--app, the seed range and the sweep axes (``campaign``, ``submit``)."""
    parser.add_argument("--app", default="jacobi3d-charm",
                        choices=MINIAPP_NAMES)
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of seeds (cells) in the sweep")
    parser.add_argument("--seed-start", type=int, default=0,
                        help="first seed (the sweep covers "
                             "[start, start+seeds))")
    for flag, _, options in _SWEEP_AXES:
        parser.add_argument(flag, **options)


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    """Sweep-axis flags -> the experiment kwargs a cell is keyed by.

    ``repro campaign`` runs with them and ``repro submit`` sends them as the
    job's ``config``, so a sweep submitted to the server shares cache cells
    with the same sweep run locally.
    """
    return {keyword: getattr(args, flag[2:].replace("-", "_"))
            for flag, keyword, _ in _SWEEP_AXES}


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--server", default="127.0.0.1:8737",
                        metavar="HOST:PORT",
                        help="campaign server address (as printed by "
                             "`repro serve` on startup)")


def _add_progress_flags(parser: argparse.ArgumentParser) -> None:
    """--progress / --progress-file on a sweep subcommand."""
    parser.add_argument("--progress", action="store_true",
                        help="render live per-cell progress (cells/s, "
                             "cache-hit rate, ETA) while the sweep runs")
    parser.add_argument("--progress-file", default=None, metavar="FILE",
                        help="atomically rewrite FILE with a JSON progress "
                             "snapshot on every cell (poll it from outside)")


def _progress_for(args: argparse.Namespace, total: int, label: str):
    """The ProgressTracker the progress flags select (or None)."""
    if not args.progress and args.progress_file is None:
        return None
    from repro.obs import ProgressTracker, render_progress_line

    on_event = None
    if args.progress:
        def on_event(event: dict) -> None:
            end = "\n" if event["done"] else ""
            print("\r\x1b[K" + render_progress_line(event),
                  end=end, file=sys.stderr, flush=True)
    return ProgressTracker(total, on_event=on_event,
                           path=args.progress_file, label=label)


def _add_cache_flags(parser: argparse.ArgumentParser,
                     *, default_off: bool = False) -> None:
    """--cache-dir / --no-cache / --no-resume on a sweep subcommand."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store root (default: $REPRO_CACHE_DIR or .repro-cache"
             + ("; caching off unless given" if default_off else ""))
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result store for this sweep")
    parser.add_argument("--no-resume", action="store_true",
                        help="recompute every cell (still writes the store)")


def _store_for(args: argparse.Namespace, *, default_off: bool = False):
    """The ResultStore a sweep subcommand's cache flags select (or None)."""
    from repro.store import ResultStore, default_cache_dir

    if args.no_cache:
        return None
    if args.cache_dir is None and default_off:
        return None
    return ResultStore(args.cache_dir or default_cache_dir())


def _cmd_apps() -> int:
    rows = []
    for name in MINIAPP_NAMES:
        d = descriptor(name)
        rows.append([name, d.programming_model, d.table2_configuration,
                     d.memory_pressure, d.declared_bytes_per_core])
    print(format_table(
        ["mini-app", "model", "config (per core)", "memory pressure",
         "bytes/core"],
        rows, title="Mini-applications (paper Table 2)"))
    return 0


def _phase_breakdown_rows(phase_times: dict[str, float],
                          checkpoint_time: float,
                          recovery_time: float) -> tuple[list, str]:
    """Rows for a per-phase protocol-time table plus a consistency line."""
    total = sum(phase_times.values())
    rows = [[phase, round(t, 4),
             round(100.0 * t / total, 2) if total > 0 else 0.0]
            for phase, t in sorted(phase_times.items())]
    budget = checkpoint_time + recovery_time
    drift = abs(total - budget) / budget if budget > 0 else 0.0
    note = (f"phase sum {total:.4f} s vs checkpoint+recovery {budget:.4f} s "
            f"(drift {100.0 * drift:.3f}%)")
    return rows, note


def _cmd_run(args: argparse.Namespace) -> int:
    tracer = metrics = series = None
    if args.trace_out is not None:
        from repro.obs import SpanTracer

        tracer = SpanTracer()
    if args.metrics_out is not None:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    if args.series_out is not None:
        from repro.obs import DEFAULT_SERIES_INTERVAL, TimeSeriesRecorder

        series = TimeSeriesRecorder(
            interval=args.series_interval or DEFAULT_SERIES_INTERVAL)
    elif args.series_interval is not None:
        print("--series-interval has no effect without --series-out",
              file=sys.stderr)
        return 2
    storage_tiers: tuple = ()
    if args.tiers != "off":
        from repro.storage.tiers import (
            NODE_LOCAL_TIER,
            SHARED_FS_TIER,
            WriteProtocol,
        )

        protocol = WriteProtocol(args.tier_protocol)
        specs = []
        if args.tiers in ("2", "both"):
            specs.append(NODE_LOCAL_TIER.with_protocol(protocol)
                         .with_interval(args.tier2_interval))
        if args.tiers in ("3", "both"):
            specs.append(SHARED_FS_TIER.with_protocol(protocol)
                         .with_interval(args.tier3_interval))
        storage_tiers = tuple(specs)
    result = run_acr_experiment(
        args.app,
        nodes_per_replica=args.nodes,
        scheme=args.scheme,
        mapping=args.mapping,
        use_checksum=args.checksum,
        total_iterations=args.iterations,
        checkpoint_interval=args.interval,
        hard_mtbf=args.hard_mtbf,
        sdc_mtbf=args.sdc_mtbf,
        seed=args.seed,
        storage_tiers=storage_tiers,
        tracer=tracer,
        metrics=metrics,
        series=series,
    )
    r = result.report
    rows = [
        ["completed", r.completed],
        ["simulated time (s)", round(r.final_time, 3)],
        ["checkpoints", r.checkpoints_completed],
        ["SDC injected / detected", f"{r.sdc_injected} / {r.sdc_detected}"],
        ["hard faults injected / detected",
         f"{r.hard_injected} / {r.hard_detected}"],
        ["recoveries", str(r.recoveries)],
        ["rework iterations", r.rework_iterations],
        ["result bit-correct", r.result_correct],
    ]
    if r.aborted_reason:
        rows.append(["aborted", r.aborted_reason])
    print(format_table(["metric", "value"], rows,
                       title=f"ACR run: {args.app}, {args.scheme} scheme, "
                             f"{args.nodes} nodes/replica"))
    if r.phase_times:
        phase_rows, note = _phase_breakdown_rows(
            r.phase_times, r.checkpoint_time, r.recovery_time)
        print()
        print(format_table(["phase", "time (s)", "share %"], phase_rows,
                           title="protocol time by phase"))
        print(note)
    if r.storage_counters:
        print()
        print(format_table(
            ["counter", "value"],
            [[k, int(v) if float(v).is_integer() else round(v, 4)]
             for k, v in sorted(r.storage_counters.items())],
            title="durable storage tiers"))
    print("\ntimeline:")
    print(r.timeline.render_ascii(width=80))
    if tracer is not None:
        from repro.obs import write_trace

        write_trace(tracer, args.trace_out, fmt=args.trace_format)
        print(f"\ntrace written to {args.trace_out} "
              f"({len(tracer.spans)} spans, "
              f"{len(tracer.phase_names())} phase types)")
    if metrics is not None:
        from repro.obs import write_metrics

        write_metrics(r.metrics_snapshot or {}, args.metrics_out,
                      app=args.app, scheme=args.scheme, seed=args.seed)
        print(f"metrics written to {args.metrics_out}")
    if series is not None:
        from repro.obs import write_series

        write_series(args.series_out, r.series or series.to_dict(),
                     fmt=args.series_format)
        print(f"series written to {args.series_out} "
              f"({len(series)} samples x {len(series.keys())} metrics, "
              f"every {series.interval:g} sim-s)")
    return 0 if (r.completed and r.aborted_reason is None) else 1


def _series_trends(series: dict) -> dict:
    """Per-metric first/last/delta trend summary of a series payload."""
    from repro.obs import TimeSeriesRecorder

    rec = TimeSeriesRecorder.from_dict(series)
    trends: dict = {"samples": len(rec), "interval": rec.interval,
                    "span_s": (rec.times[-1] - rec.times[0]) if rec.times
                    else 0.0,
                    "counters": {}, "gauges": {}}
    for key, col in sorted(rec.counters.items()):
        trends["counters"][key] = {
            "first": col[0] if col else 0.0,
            "last": col[-1] if col else 0.0,
            "delta": (col[-1] - col[0]) if col else 0.0,
            "deltas": rec.deltas(key),
        }
    for key, col in sorted(rec.gauges.items()):
        trends["gauges"][key] = {
            "first": col[0] if col else 0.0,
            "last": col[-1] if col else 0.0,
            "min": min(col) if col else 0.0,
            "max": max(col) if col else 0.0,
            "values": list(col),
        }
    return trends


def _cmd_report(args: argparse.Namespace) -> int:
    """Render telemetry files written by ``repro run``."""
    import json

    from repro.obs import (
        load_json,
        snapshot_percentile,
        trace_phase_summary,
        validate_chrome_trace,
    )

    if args.metrics is None and args.trace is None and args.series is None:
        print("nothing to report: pass --metrics, --trace and/or --series",
              file=sys.stderr)
        return 2
    status = 0
    as_json = args.format == "json"
    document: dict = {}
    if args.metrics is not None:
        snap = load_json(args.metrics)
        if as_json:
            document["metrics"] = snap
            snap = {}
        gauges = snap.get("gauges", {})
        prefix = "acr.phase_time_s{phase="
        phase_times = {k[len(prefix):-1]: v for k, v in gauges.items()
                       if k.startswith(prefix)}
        if phase_times:
            phase_rows, note = _phase_breakdown_rows(
                phase_times,
                gauges.get("acr.checkpoint_time_s", 0.0),
                gauges.get("acr.recovery_time_s", 0.0))
            print(format_table(["phase", "time (s)", "share %"], phase_rows,
                               title=f"protocol time by phase ({args.metrics})"))
            print(note)
            print()
        counters = snap.get("counters", {})
        storage_counters = {k: v for k, v in counters.items()
                            if k.startswith("storage.")}
        counters = {k: v for k, v in counters.items()
                    if not k.startswith("storage.")}
        if counters:
            print(format_table(
                ["counter", "value"],
                [[k, int(v) if float(v).is_integer() else v]
                 for k, v in sorted(counters.items())],
                title="counters"))
            print()
        if storage_counters:
            print(format_table(
                ["counter", "value"],
                [[k, int(v) if float(v).is_integer() else v]
                 for k, v in sorted(storage_counters.items())],
                title="durable storage tiers (level hit/miss/fallback)"))
            print()
        other_gauges = {k: v for k, v in gauges.items()
                        if not k.startswith(prefix)}
        if other_gauges:
            print(format_table(
                ["gauge", "value"],
                [[k, v] for k, v in sorted(other_gauges.items())],
                title="gauges"))
            print()
        histograms = snap.get("histograms", {})
        if histograms:
            print(format_table(
                ["histogram", "count", "mean", "p50", "p90", "p99", "max"],
                [[k, h["count"],
                  round(h["sum"] / h["count"], 6) if h["count"] else 0.0,
                  round(snapshot_percentile(h, 50), 6),
                  round(snapshot_percentile(h, 90), 6),
                  round(snapshot_percentile(h, 99), 6),
                  round(h["max"], 6)]
                 for k, h in sorted(histograms.items())],
                title="histograms (seconds)"))
            print()
    if args.trace is not None:
        payload = load_json(args.trace)
        problems = validate_chrome_trace(payload)
        if problems:
            print(f"invalid Chrome trace {args.trace}:", file=sys.stderr)
            for p in problems[:10]:
                print(f"  {p}", file=sys.stderr)
            status = 1
        else:
            summary = trace_phase_summary(payload)
            if as_json:
                document["trace"] = {
                    "events": len(payload["traceEvents"]),
                    "spans": {name: {"count": count, "total_s": total}
                              for name, (count, total) in summary.items()},
                }
            else:
                print(format_table(
                    ["span", "count", "total (s)"],
                    [[name, count, round(total, 4)]
                     for name, (count, total) in sorted(summary.items())],
                    title=f"trace span summary ({args.trace}, "
                          f"{len(payload['traceEvents'])} events)"))
    if args.series is not None:
        trends = _series_trends(load_json(args.series))
        if as_json:
            document["series"] = trends
        else:
            from repro.viz import sparkline

            rows = []
            for key, tr in trends["counters"].items():
                rows.append([key, tr["first"], tr["last"],
                             round(tr["delta"], 4),
                             sparkline(tr["deltas"], width=24)
                             if tr["deltas"] else ""])
            for key, tr in trends["gauges"].items():
                rows.append([key, round(tr["first"], 4),
                             round(tr["last"], 4), "-",
                             sparkline(tr["values"], width=24)
                             if tr["values"] else ""])
            print(format_table(
                ["metric", "first", "last", "delta",
                 "trend (deltas/values)"],
                rows,
                title=f"time-series trends ({args.series}, "
                      f"{trends['samples']} samples over "
                      f"{trends['span_s']:g} sim-s)"))
            print()
    if as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
    return status


def _cmd_model(args: argparse.Namespace) -> int:
    params = ModelParams(
        work=args.hours * HOURS,
        delta=args.delta,
        sockets_per_replica=args.sockets,
        hard_mtbf_socket=args.mtbf_years * YEARS,
        sdc_fit_socket=args.fit,
    )
    rows = []
    for scheme in ResilienceScheme:
        tau = optimal_tau(params, scheme)
        sol = solve_scheme(params, scheme, tau)
        rows.append([
            str(scheme), round(tau, 1), round(sol.total_time / HOURS, 3),
            round(sol.utilization, 4),
            f"{undetected_sdc_probability(params, scheme, tau):.3e}",
        ])
    print(format_table(
        ["scheme", "tau_opt (s)", "total time (h)", "utilization",
         "P(undetected SDC)"],
        rows,
        title=(f"Section-5 model: {args.sockets} sockets/replica, "
               f"delta={args.delta}s, {args.fit} FIT/socket, "
               f"M_H={args.mtbf_years}y/socket, {args.hours}h job")))
    if args.tiers:
        from repro.model.multilevel import plan_tier_intervals
        from repro.storage.tiers import default_tiers

        nbytes, nshards = 64 * 1024 * 1024, 8
        plans = plan_tier_intervals(default_tiers(), nbytes, nshards)
        print()
        print(format_table(
            ["level", "tier", "protocol", "delta (s)", "assumed MTBF (s)",
             "interval (s)", "overhead"],
            [[p.level, p.name, p.protocol, round(p.delta, 4), p.mtbf,
              round(p.interval, 1), f"{p.overhead:.2%}"] for p in plans],
            title=f"durable-tier plan ({nbytes >> 20} MiB generation, "
                  f"{nshards} shards)"))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    apps = tuple(args.apps) if args.apps else MINIAPP_NAMES
    if args.name == "fig6":
        if args.plot:
            from repro.viz import plot_fig6_heatmap

            for scheme in ("default", "column", "mixed"):
                print(plot_fig6_heatmap(scheme=scheme))
                print()
            return 0
        rows = fig6_data()
        print(format_table(
            ["mapping", "max msgs/link", "buddy hops", "profile"],
            [[r.mapping, r.max_link_load, r.buddy_hops_max,
              str(list(r.plane_profile))] for r in rows],
            title="Figure 6"))
    elif args.name == "fig7":
        from repro.model.surfaces import fig7_curves

        points = fig7_curves()
        if args.plot:
            from repro.viz import plot_fig7_utilization

            for delta in (15.0, 180.0):
                print(plot_fig7_utilization(points, delta))
                print()
            return 0
        print(format_table(
            ["sockets/replica", "delta(s)", "scheme", "tau_opt(s)",
             "utilization", "P(undetected SDC)"],
            [[pt.sockets_per_replica, pt.delta, str(pt.scheme),
              round(pt.tau_opt, 1), round(pt.utilization, 4),
              f"{pt.undetected_sdc_probability:.3e}"] for pt in points],
            title="Figure 7"))
    elif args.name == "fig8":
        rows = fig8_data(apps=apps)
        if args.plot:
            from repro.viz import plot_fig8_bars

            for app in apps:
                print(plot_fig8_bars(rows, app, 65536))
                print()
            return 0
        print(format_table(
            ["app", "cores/replica", "method", "local", "transfer",
             "compare", "total"],
            [[r.app, r.cores_per_replica, r.method, round(r.local, 4),
              round(r.transfer, 4), round(r.compare, 4), round(r.total, 4)]
             for r in rows],
            title="Figure 8: single checkpoint overhead (s)"))
    elif args.name in ("fig9", "fig11"):
        apps9 = tuple(args.apps) if args.apps else ("jacobi3d-charm", "leanmd")
        rows = fig9_fig11_data(apps=apps9)
        attr = ("checkpoint_overhead_pct" if args.name == "fig9"
                else "overall_overhead_pct")
        print(format_table(
            ["app", "sockets/replica", "scheme", "variant", "tau_opt (s)",
             "overhead %"],
            [[r.app, r.sockets_per_replica, r.scheme, r.variant,
              round(r.tau_opt, 1), round(getattr(r, attr), 3)]
             for r in rows],
            title=f"Figure {args.name[3:]}: overhead at optimal period"))
    elif args.name == "fig10":
        rows = fig10_data(apps=apps)
        if args.plot:
            from repro.viz import plot_fig10_bars

            for app in apps:
                print(plot_fig10_bars(rows, app, 65536))
                print()
            return 0
        print(format_table(
            ["app", "cores/replica", "variant", "transfer", "reconstruction",
             "total"],
            [[r.app, r.cores_per_replica, r.variant, round(r.transfer, 4),
              round(r.reconstruction, 4), round(r.total, 4)] for r in rows],
            title="Figure 10: single restart overhead (s)"))
    else:  # fig12
        result = fig12_data(nodes_per_replica=args.nodes,
                            horizon=args.horizon, failures=args.failures,
                            seed=args.seed)
        if args.plot:
            from repro.viz import plot_fig12_intervals

            print(plot_fig12_intervals(result))
            return 0
        r = result.report
        print(format_table(
            ["metric", "value"],
            [["failures detected", r.hard_detected],
             ["checkpoints", r.checkpoints_completed],
             ["mean gap, first fifth (s)", round(result.early_mean_interval, 2)],
             ["mean gap, last fifth (s)", round(result.late_mean_interval, 2)]],
            title="Figure 12: adaptivity"))
        print(result.ascii_timeline)
    return 0


def _cmd_table2() -> int:
    from repro.apps.registry import make_app
    from repro.pup import pack

    rows = []
    for name in MINIAPP_NAMES:
        d = descriptor(name)
        app = make_app(name, 2, scale=1e-4, seed=0)
        measured = sum(pack(app.shard(r)).nbytes for r in range(2))
        rows.append([name, d.table2_configuration, d.memory_pressure,
                     d.declared_bytes_per_core, measured])
    print(format_table(
        ["mini-app", "config (per core)", "pressure", "declared bytes/core",
         "measured bytes (scaled)"],
        rows, title="Table 2"))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.harness.campaign import run_campaign

    store = _store_for(args)
    progress = _progress_for(args, args.seeds, "campaign")
    result = run_campaign(
        args.app,
        seeds=range(args.seed_start, args.seed_start + args.seeds),
        workers=args.workers,
        cache=store,
        resume=not args.no_resume,
        progress=progress,
        **_sweep_kwargs(args),
    )
    s = result.summary
    rows = [
        ["runs", s.runs],
        ["completed / correct", f"{s.completed_runs} / {s.correct_runs}"],
        ["aborted", s.aborted_runs],
        ["mean overhead", round(s.mean_overhead, 6)],
        ["std overhead", round(s.std_overhead, 6)],
        ["mean checkpoints", round(s.mean_checkpoints, 3)],
        ["mean rework iterations", round(s.mean_rework_iterations, 3)],
        ["hard faults / SDC", f"{s.total_hard_faults} / {s.total_sdc}"],
        ["recoveries", str(s.total_recoveries)],
        ["cache hits / misses",
         f"{result.cache_hits} / {result.cache_misses}"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"campaign: {args.app}, {args.scheme} scheme, "
              f"seeds {args.seed_start}..{args.seed_start + args.seeds - 1}"))
    if store is not None:
        print(f"\nresult store: {store.root} "
              f"({'resumed' if not args.no_resume else 'recomputed'}; "
              f"`repro store ls` to inspect)")
    return 0 if s.completed_runs == s.runs else 1


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, default_cache_dir

    store = ResultStore(args.cache_dir or default_cache_dir())
    if args.store_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"store {store.root}: empty")
            return 0
        print(format_table(
            ["key", "kind", "app", "seed", "bytes", "stale"],
            [[e.key[:12], e.kind, e.app,
              e.seed if e.seed is not None else "-", e.nbytes,
              "yes" if e.stale else ""] for e in entries],
            title=f"store {store.root}: {len(entries)} cells"))
        return 0
    if args.store_command == "gc":
        result = store.gc(wipe=args.wipe)
        tmp = (f", swept {result.tmp_removed} orphaned temp file(s)"
               if result.tmp_removed else "")
        print(f"store {store.root}: removed {result.removed} cell(s) "
              f"({result.bytes_freed} bytes), kept {result.kept}{tmp}")
        return 0
    problems = store.verify()
    if problems:
        print(f"store {store.root}: {len(problems)} problem(s)",
              file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"store {store.root}: ok ({len(store.entries())} cells verified)")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro.store.golden import check_golden, write_golden

    if args.action == "update":
        for path in write_golden(args.dir):
            print(f"wrote {path}")
        return 0
    problems = check_golden(args.dir)
    if problems:
        print(f"golden digest check FAILED ({args.dir}/):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        print("intentional change? re-run `python -m repro golden update` "
              "and commit the diff", file=sys.stderr)
        return 1
    print(f"golden digests match ({args.dir}/)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import (
        ChaosSchedule,
        run_chaos_campaign,
        run_schedule,
    )

    if args.replay is not None:
        import json

        from repro.obs import is_flight_artifact

        with open(args.replay, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if is_flight_artifact(payload):
            # A flight-recorder dump embeds the replayable schedule: replay
            # the exact execution whose event tail the artifact shows.
            if not payload.get("schedule"):
                print(f"{args.replay}: flight artifact has no embedded "
                      f"schedule", file=sys.stderr)
                return 2
            schedule = ChaosSchedule.from_dict(payload["schedule"])
            print(f"flight artifact: replaying embedded schedule "
                  f"(seed {schedule.seed}, reason {payload.get('reason')!r}, "
                  f"{len(payload.get('events', []))} tail events)")
        else:
            schedule = ChaosSchedule.from_dict(payload)
        outcome = run_schedule(schedule)
        rows = [
            ["seed", outcome.seed],
            ["verdict", "ok" if outcome.ok else
             f"FAIL [{outcome.invariant}]"],
            ["completed", outcome.completed],
            ["invariant checks", outcome.checks_performed],
            ["fingerprint", outcome.fingerprint[:16]],
        ]
        if outcome.violation:
            rows.append(["violation", outcome.violation])
        if outcome.aborted_reason:
            rows.append(["aborted", outcome.aborted_reason])
        print(format_table(["metric", "value"], rows,
                           title=f"chaos replay: {args.replay}"))
        return 0 if outcome.ok else 1

    progress = _progress_for(args, args.seeds, "chaos")
    result = run_chaos_campaign(
        args.seeds, workers=args.workers, app=args.app,
        shrink=not args.no_shrink, cache=_store_for(args, default_off=True),
        resume=not args.no_resume, flight_dir=args.flight_dir,
        progress=progress)
    print(format_table(
        ["scheme / mode", "schedules"],
        [[cell, count] for cell, count in sorted(result.coverage().items())],
        title=f"chaos campaign: {args.seeds} schedules, "
              f"{result.total_checks} invariant checks, "
              f"{result.cache_hits} cached"))
    if result.ok:
        print(f"\nall {len(result.outcomes)} schedules green")
        return 0
    print(f"\n{len(result.failures)} failing schedule(s):")
    shrunk_by_seed = {s.schedule.seed: s for s in result.shrunk}
    for failure in result.failures:
        line = (f"  seed {failure.seed}: [{failure.invariant}] "
                f"{failure.violation}")
        shrink = shrunk_by_seed.get(failure.seed)
        if shrink is not None:
            line += (f"  (minimized {shrink.original_events} -> "
                     f"{shrink.minimized_events} faults)")
        print(line)
        if failure.flight_path:
            print(f"    flight recording: {failure.flight_path} "
                  f"(`repro chaos --replay` accepts it)")
        if args.out is not None:
            import os

            os.makedirs(args.out, exist_ok=True)
            plan = (shrink.schedule if shrink is not None
                    else ChaosSchedule.from_dict(failure.schedule))
            path = os.path.join(args.out, f"repro-seed{failure.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(plan.to_json())
            print(f"    repro plan written to {path}")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CampaignServer, ServeState, serve_forever
    from repro.serve.state import DEFAULT_QUEUE_LIMIT, DEFAULT_TENANT_QUOTA
    from repro.store import ResultStore, default_cache_dir

    store = ResultStore(args.cache_dir or default_cache_dir())
    state = ServeState(
        store,
        queue_limit=(args.queue_limit if args.queue_limit is not None
                     else DEFAULT_QUEUE_LIMIT),
        tenant_quota=(args.tenant_quota if args.tenant_quota is not None
                      else DEFAULT_TENANT_QUOTA),
    )
    server = CampaignServer(state, host=args.host, port=args.port,
                            workers=args.workers)
    return serve_forever(server)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError

    with ServeClient(args.server) as client:
        try:
            job = client.submit(
                tenant=args.tenant, app=args.app,
                seed_start=args.seed_start, count=args.seeds,
                config=_sweep_kwargs(args), priority=args.priority)
        except ServeError as err:
            if err.status == 429:
                print(f"server busy: {err.payload.get('error')} "
                      f"(retry after {err.retry_after:g}s)", file=sys.stderr)
                return 75  # EX_TEMPFAIL
            raise
        print(f"{job['job_id']}: {job['status']} "
              f"({job['cached_at_submit']} cached, "
              f"{job['attached_at_submit']} shared in flight, "
              f"{job['queued_at_submit']} queued)")
        if not args.wait:
            return 0
        status = client.wait(job["job_id"], timeout=args.timeout)
        if status["status"] != "done":
            print(f"{job['job_id']}: {status['status']}"
                  + (f" ({status['error']})" if status.get("error") else ""),
                  file=sys.stderr)
            return 1
        result = client.result(job["job_id"])
        summary = result["summary"]
        print(format_table(
            ["metric", "value"],
            [[k, summary[k]] for k in sorted(summary)],
            title=f"{job['job_id']}: {args.app}, "
                  f"seeds {args.seed_start}.."
                  f"{args.seed_start + args.seeds - 1}"))
        print(f"summary digest: {result['summary_digest']}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    with ServeClient(args.server) as client:
        jobs = client.jobs(tenant=args.tenant)
    if args.json:
        import json

        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print(f"server {args.server}: no jobs")
        return 0
    print(format_table(
        ["job", "tenant", "app", "status", "cells", "done", "cached",
         "saved"],
        [[j["job_id"], j["tenant"], j["app"], j["status"], j["cells_total"],
          j["cells_done"], j["cached_at_submit"], j["saved_on_resume"]]
         for j in jobs],
        title=f"server {args.server}: {len(jobs)} job(s)"))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    with ServeClient(args.server) as client:
        job = client.cancel(args.job_id)
    print(f"{job['job_id']}: {job['status']}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "apps":
        return _cmd_apps()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "table2":
        return _cmd_table2()
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "golden":
        return _cmd_golden(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

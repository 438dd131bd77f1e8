#!/usr/bin/env python
"""Run the checkpoint + simulation-engine micro-benchmarks and emit
``BENCH_checkpoint.json``.

Usage::

    python benchmarks/perf/run_bench.py                 # full sizes (64 MiB)
    python benchmarks/perf/run_bench.py --quick         # tiny smoke sizes
    python benchmarks/perf/run_bench.py --mib 256 --out custom.json

The JSON records per-benchmark timings and speedups plus environment metadata;
``docs/performance.md`` explains how to read it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import numpy as np  # noqa: E402

from benchmarks.perf.bench_checkpoint import run_all  # noqa: E402
from benchmarks.perf.bench_des import run_all_des  # noqa: E402
from benchmarks.perf.bench_obs_stream import run_all_obs  # noqa: E402
from benchmarks.perf.bench_scale import run_all_scale  # noqa: E402
from benchmarks.perf.bench_serve import run_all_serve  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repeat (smoke mode)")
    parser.add_argument("--mib", type=float, default=64.0,
                        help="payload size in MiB for pack/checksum benches")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N timing repeats")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_checkpoint.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick, total_mib=args.mib,
                      repeats=args.repeats)
    results.update(run_all_des(quick=args.quick,
                               repeats=min(args.repeats, 3)))
    results.update(run_all_obs(quick=args.quick,
                               repeats=min(args.repeats, 3)))
    results.update(run_all_scale(
        quick=args.quick,
        reference_events_per_s=(
            results["des_acr"]["legacy_equivalent_events_per_s"])))
    results.update(run_all_serve(quick=args.quick,
                                 repeats=min(args.repeats, 3)))
    payload = {
        "benchmark": "checkpoint_hot_path",
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    pack = results["pack"]
    fl = results["fletcher"]
    camp = results["campaign"]
    print(f"wrote {args.out}")
    print(f"pack        {pack['payload_mib']:8.1f} MiB  "
          f"{pack['pack_gib_per_s']:.2f} GiB/s steady state "
          f"({pack['pack_ref_gib_per_s']:.2f} on the reference host)")
    print(f"checksum    {fl['payload_mib']:8.1f} MiB  "
          f"striped digest {fl['striped_digest_gib_per_s']:.2f} GiB/s, "
          f"{fl['striped_speedup_vs_seed']:.2f}x vs seed")
    tier = results["tiered_persist"]
    print(f"tiers       {tier['payload_mib']:8.1f} MiB  "
          f"persist {1e6 * tier['persist_atomic_s']:.0f} us, "
          f"verified restore {tier['restore_gib_per_s']:.2f} GiB/s "
          f"(sha {100.0 * tier['sha_share_of_restore']:.0f}%), "
          f"modeled atomic overhead {tier['sim_safety_overhead']:.2f}x, "
          f"fallback correct={tier['restore_fallback_correct']}")
    scan = results["sdc_scan"]
    print(f"sdc scan    {scan['payload_mib']:8.1f} MiB  "
          f"{scan['nranks']} ranks in {scan['blocks']} blocks, equal: "
          f"full {scan['full_gib_per_s']:.2f} GiB/s, "
          f"checksum {scan['checksum_gib_per_s']:.2f} GiB/s")
    print(f"campaign    {camp['seeds']} seeds   "
          f"workers={camp['workers']} {camp['parallel_speedup']:.2f}x "
          f"on {camp['cpu_count']} core(s), "
          f"identical={camp['summaries_identical']}")
    disp = results["des_dispatch"]
    per = results["des_periodic"]
    msg = results["des_messages"]
    acr = results["des_acr"]
    print(f"des engine  {disp['n_events']} events "
          f"dispatch {disp['events_per_s'] / 1e3:.0f}k ev/s "
          f"({disp['ref_events_per_s'] / 1e3:.0f}k on the reference host), "
          f"periodic {per['periodic_speedup_vs_resched']:.2f}x, "
          f"msg fastpath {msg['fastpath_speedup']:.2f}x")
    print(f"acr run     {acr['events']} events in {acr['wall_s']:.2f}s "
          f"({acr['events_per_s'] / 1e3:.0f}k ev/s end-to-end)")
    obs = results["obs_stream"]
    print(f"obs stream  {obs['samples']} samples every {obs['interval']:g} "
          f"sim-s (+{obs['extra_events']} events): "
          f"{obs['sampled_rate_ratio']:.3f}x unsampled throughput")
    scale = results["bench_scale"]
    for label, row in (("scale", scale), ("scale xl", scale.get("xl"))):
        if row is None:
            continue
        print(f"{label:<11} {row['nodes']} nodes x{row['total_iterations']} "
              f"iters in {row['wall_s']:.1f}s "
              f"(+{row['construct_s']:.1f}s construction, "
              f"{row['legacy_equivalent_events_per_s'] / 1e3:.0f}k eq-ev/s, "
              f"{row.get('events_speedup_vs_des_acr', 0.0):.2f}x des_acr, "
              f"rss {row['peak_rss_mib']:.0f} MiB, "
              f"completed={row['completed']})")
    serve = results["serve"]
    print(f"serve       {serve['requests']} submits x"
          f"{serve['seeds_per_job']} seeds  "
          f"{serve['cache_hit_rps']:.0f} cache-hit req/s "
          f"(p50 {serve['p50_ms']:.2f} ms, p99 {serve['p99_ms']:.2f} ms, "
          f"all_hits={serve['all_hits']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run every workload untraced and traced, and print all metrics as tables.

    python3 perfbench/report.py --seed 0 --seconds 35

Each run is a fresh ``run.py`` process, so ``peak_rss_mib`` belongs to one
workload.  The per-layer table is followed by the accounting check: the
traced run's self times (``trace.accounted_s``) must match the untraced run
wall time (``run.wall_s``) to within the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("fault_mix", "ckpt_bulk", "scale_fwd")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_table(title: str, results: dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{title}")
    print(f"  {'metric':32s}" + "".join(f"{w:>16s}" for w in results) + "  unit")
    for name in names:
        row = [results[w]["metrics"][name] for w in results]
        print(f"  {name:32s}" + "".join(f"{m['value']:16.6g}" for m in row)
              + f"  {row[0]['unit']}")
    print(f"  {'cells (failed)':32s}"
          + "".join(f"{r['attempted']:>11d} ({r['failed']})" for r in results.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args(argv)
    plain = {w: run_workload(w, args.seed, args.seconds, 0) for w in args.workloads}
    traced = {w: run_workload(w, args.seed, args.seconds, 1) for w in args.workloads}
    print_table("end-to-end (tracing off)", plain)
    print_table("per layer (traced run)", traced)
    print("\naccounting: |run.wall_s - trace.accounted_s| <= trace.overhead_s")
    ok = all(r["correct"] for r in (*plain.values(), *traced.values()))
    for w, r in traced.items():
        m = {k: v["value"] for k, v in r["metrics"].items()}
        gap = abs(m["run.wall_s"] - m["trace.accounted_s"])
        within = gap <= m["trace.overhead_s"]
        ok &= within
        print(f"  {w:10s} wall {m['run.wall_s']:.3f} s  accounted "
              f"{m['trace.accounted_s']:.3f} s  gap {gap:.3f} s  overhead "
              f"{m['trace.overhead_s']:.3f} s  {'ok' if within else 'NOT WITHIN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

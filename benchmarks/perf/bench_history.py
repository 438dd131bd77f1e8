#!/usr/bin/env python
"""Append one line per measured checkout to ``BENCH_history.jsonl``.

Runs the three ``perfbench`` workloads untraced -- each in its own Python
process, as ``perfbench/run.py`` does -- and appends one JSON object with
the checkout's commit, a host fingerprint, each workload's end-to-end
medians and median ``host.slowdown``, the line count of ``src/`` and the
number of public names (``__all__`` entries) under ``src/``::

    python benchmarks/perf/bench_history.py                  # this checkout
    python benchmarks/perf/bench_history.py --seconds 20
    python benchmarks/perf/bench_history.py --repo ../parent --commit <sha>

``--repo`` measures another checkout of this repository (its ``src/`` and
``perfbench/``) and still appends to this repository's history file, so a
change can record its parent's line next to its own on the same host.  The
history is a trajectory: compare lines from one host fingerprint only.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("fault_mix", "ckpt_bulk", "scale_fwd")

#: Runs inside the measured checkout: warm-up, untraced passes, digest check.
_MEASURE_SCRIPT = """
import json, statistics, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import cells, run
workload, seconds = sys.argv[2], float(sys.argv[3])
todo = cells.build_cells(workload, 0)
for cell in cells.warmup_cells(todo):
    cells.run_cell(cell)
passes, metrics = run.measure(todo, seconds)
failures = cells.check_passes(passes, cells.load_pinned(workload))
out = {name: value for name, (value, _unit) in metrics.items()}
out["host.slowdown"] = statistics.median(r.slowdown for p in passes for r in p)
out["passes"] = len(passes)
out["failed"] = len(failures)
out["host"] = run.host_fingerprint()
print(json.dumps(out))
"""


def _git(repo: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def src_stats(repo: Path) -> tuple[int, str]:
    """Lines of ``src/**/*.py`` and a SHA-256 over their paths and bytes."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((repo / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(repo)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def public_names(repo: Path) -> int:
    """``__all__`` entries in ``src/**/*.py``, read with :mod:`ast` so the
    measured checkout is never imported."""
    count = 0
    for path in sorted((repo / "src").rglob("*.py")):
        for node in ast.parse(path.read_bytes(), str(path)).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                count += len(ast.literal_eval(node.value))
    return count


def measure(repo: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE_SCRIPT, str(repo), workload, str(seconds)],
        check=True, capture_output=True, text=True, cwd=repo)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=REPO_ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--commit", default=None,
                        help="commit to record (default: git HEAD of --repo)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="untraced passes per workload, as perfbench")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_history.jsonl")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    commit = args.commit or _git(repo, "rev-parse", "HEAD") or "unknown"
    dirty = bool(_git(repo, "status", "--porcelain", "--", "src"))
    loc, src_sha = src_stats(repo)
    workloads, host = {}, None
    for workload in WORKLOADS:
        result = measure(repo, workload, args.seconds)
        host = result.pop("host")
        workloads[workload] = result
        print(f"{workload}: " + json.dumps(result), file=sys.stderr)
    line = {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": src_sha,
        "src_loc": loc,
        "public_names": public_names(repo),
        "recorded_unix": int(time.time()),
        "seconds": args.seconds,
        "host": host,
        "workloads": workloads,
    }
    with open(args.out, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if all(w["failed"] == 0 for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""ACR benchmark: time whole ACR runs on one workload and print the metrics.

Run from the root of the repository::

    python3 perfbench/run.py --workload fault_mix --seed 1 --seconds 35 --trace 0

The workload's cells (see ``cells.py``) run in passes for about
``--seconds``; every cell of every pass is checked against the digests
pinned for the default seed, or, for any other seed, against the first pass.

``--trace 0`` reports the end-to-end metrics: ``node_iters_per_s`` and
``setup_s`` (each cell's median over the passes, in reference-host seconds,
see ``hostspeed.py``) and ``peak_rss_mib``.
``--trace 1`` alternates an untraced pass with a pass run under the span wrappers of
``spans.py`` and reports the per-layer metrics of ``layers.py`` (medians
over pairs); the last traced pass's spans are written to
``.perfbench/spans-<workload>-seed<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Units of the end-to-end metrics.
END_TO_END = {"node_iters_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fault_mix", "ckpt_bulk", "scale_fwd"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    """What absolute numbers need beside them to compare across machines."""
    import numpy as np

    from hostspeed import KERNELS, kernel_times

    samples = [sum(kernel_times()) for _ in range(21)]
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "calibration_s": statistics.median(samples),
            "calibration_reference_s": sum(ref for _, ref in KERNELS)}


def hygiene_errors(threads_before: set) -> list[str]:
    """Threads, child processes or a timer left behind since start-up."""
    errors = [f"thread still alive: {t.name}"
              for t in threading.enumerate() if t not in threads_before]
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        errors.append("interval timer still armed")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass  # no children at all
    else:
        errors.append("child process still alive" if pid == 0
                      else f"child process {pid} was left unreaped")
    return errors


def run_pass(cells_, run_cell, **kwargs) -> list:
    return [run_cell(cell, **kwargs) for cell in cells_]


def until(seconds: float):
    """Yield pass numbers while the next pass, as long as the last one,
    still ends within ``seconds``; always at least one."""
    start = time.perf_counter()
    last = number = 0
    while number == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield number
        last = time.perf_counter() - t0
        number += 1


def median_per_cell(passes, attr: str) -> list[float]:
    """Each cell's median ``attr`` over the passes."""
    return [statistics.median(getattr(p[i], attr) for p in passes)
            for i in range(len(passes[0]))]


def measure(workload_cells, seconds: float):
    """Untraced passes for ``seconds``; times are reference-host seconds.

    The first pass samples host speed only between set-up and run, and peak
    RSS is read after it: the in-run samples' signal handler can move one of
    the program's garbage collections, and with it when a cycle holding a
    checkpoint array is freed, which raised the peak by 3 % in some runs.
    """
    from cells import run_cell
    from hostspeed import PERIOD_S

    passes = []
    for number in until(seconds):
        passes.append(run_pass(workload_cells, run_cell,
                               period=None if number == 0 else PERIOD_S))
        if number == 0:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    node_iters = sum(c.node_iters for c in workload_cells)
    metrics = {
        "node_iters_per_s": node_iters / sum(median_per_cell(passes, "run_ref_s")),
        "setup_s": sum(median_per_cell(passes, "setup_ref_s")),
        "peak_rss_mib": peak_rss / 1024,
    }
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def measure_traced(workload_cells, seconds: float, spans_path: Path):
    """(untraced, traced) pass pairs for about ``seconds``."""
    from cells import run_cell
    from layers import METRICS, layer_metrics
    from spans import GcMeter, SpanRecorder

    passes, samples = [], []
    recorder = None
    for _ in until(seconds):
        meter = GcMeter()
        # Sampled only between set-up and run, so the plain run is
        # uninterrupted and compares with the traced one.
        plain = run_pass(workload_cells, run_cell, period=None, gc_meter=meter)
        recorder = SpanRecorder()
        with recorder:
            traced = []
            for cell in workload_cells:
                recorder.mark()
                traced.append(run_cell(cell, probe=False, on_setup=recorder.mark))
        passes += [plain, traced]
        samples.append(layer_metrics(workload_cells, plain, traced, recorder,
                                     meter.seconds, meter.collections))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.save(spans_path)
    metrics = {name: (statistics.median(s[name] for s in samples), unit)
               for name, (unit, _) in METRICS.items()}
    return passes, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_before = set(threading.enumerate())
    try:
        import cells
    except ImportError as exc:
        print(f"perfbench: cannot import the ACR program: {exc}", file=sys.stderr)
        return 2
    workload_cells = cells.build_cells(args.workload, args.seed)
    for cell in cells.warmup_cells(workload_cells):
        warm = cells.run_cell(cell)
        if warm.error is not None:
            print(f"perfbench: warm-up {cell.name}: {warm.error}", file=sys.stderr)
            return 3
    if args.trace:
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.npz"
        passes, metrics = measure_traced(workload_cells, args.seconds, spans_path)
    else:
        passes, metrics = measure(workload_cells, args.seconds)

    expected = (cells.load_pinned(args.workload)
                if args.seed == cells.DEFAULT_SEED else None)
    failures = cells.check_passes(passes, expected)
    for line in failures:
        print(f"perfbench: failed cell: {line}", file=sys.stderr)
    errors = hygiene_errors(threads_before)
    if errors:
        for line in errors:
            print(f"perfbench: {line}", file=sys.stderr)
        return 4

    attempted = sum(len(p) for p in passes)
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"cells {attempted} cells_failed {len(failures)}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

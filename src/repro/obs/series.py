"""Time-series sampling over the metrics registry.

:class:`TimeSeriesRecorder` turns the end-of-run aggregates PR 3 introduced
into *streaming* telemetry: a framework-armed ``schedule_periodic`` timer
calls :meth:`TimeSeriesRecorder.sample` every ``interval`` simulated seconds
with a full :meth:`~repro.core.framework.ACR.metrics_snapshot`, and the
recorder stores the counter/gauge values columnar — one shared time axis,
one column per metric key.  That makes queue depth, tier persist rates and
failure-rate estimates visible as they *evolve* over simulated time, which
the paper's §5 adaptive controller (online MTBF / phase-duration estimates)
and the campaign-as-a-service roadmap item both need.

Design points, mirroring the rest of ``repro.obs``:

* **Opt-in, overhead-neutral default.**  :data:`NULL_SERIES` is a shared
  no-op; an un-instrumented run arms no timer and stays bit-identical
  (golden digests are the oracle).  Enabling sampling *does* schedule
  engine-level periodic events, so a sampled run is a different (still
  deterministic) execution — callers opt in knowingly.
* **Columnar + mergeable.**  Series from campaign workers merge onto a
  union time grid (:func:`merge_series`): counters add, gauges follow the
  same last-writer-by-worker-index rule as
  :func:`~repro.obs.metrics.merge_snapshots`.
* **Exportable.**  JSONL (one row per sample) for downstream pandas/jq, and
  Prometheus/OpenMetrics text exposition (:meth:`to_openmetrics`) so a
  scrape endpoint or pushgateway can serve the last sample directly.
"""

from __future__ import annotations

import json

from repro.obs.metrics import parse_metric_key

#: Default sampling cadence in simulated seconds.  At the paper-scale
#: configurations (checkpoint intervals of 2-30 s) this lands a few samples
#: per checkpoint period without dominating the event budget.
DEFAULT_SERIES_INTERVAL = 5.0

SERIES_FORMAT = "repro-series/1"


class NullSeriesRecorder:
    """Do-nothing recorder: the overhead-neutral default.

    ``enabled`` is False so the framework skips arming the sampling timer
    entirely — a disabled run schedules zero extra events.
    """

    enabled = False
    interval = 0.0

    def sample(self, t: float, snapshot: dict) -> None:
        return None

    def to_dict(self) -> dict:
        return {"format": SERIES_FORMAT, "interval": 0.0,
                "times": [], "counters": {}, "gauges": {}}


#: The shared no-op recorder every un-sampled run uses.
NULL_SERIES = NullSeriesRecorder()


class TimeSeriesRecorder:
    """Columnar time series of metric snapshots over simulated time.

    Counter columns are zero-padded on the left when a key first appears
    mid-run, so every column always spans the full time axis.  Gauge columns
    pad with the first observed value (a gauge that did not exist yet has no
    meaningful zero).
    """

    enabled = True

    def __init__(self, interval: float = DEFAULT_SERIES_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.times: list[float] = []
        self.counters: dict[str, list[float]] = {}
        self.gauges: dict[str, list[float]] = {}

    # -- recording -----------------------------------------------------------
    def sample(self, t: float, snapshot: dict) -> None:
        """Append one sample at simulated time ``t``.

        Out-of-order or duplicate timestamps are collapsed: a sample at a
        time <= the previous one overwrites the last row (the final
        end-of-run sample often coincides with the last periodic tick).
        """
        if self.times and t <= self.times[-1]:
            self._overwrite_last(snapshot)
            return
        n = len(self.times)
        self.times.append(float(t))
        for key, value in snapshot.get("counters", {}).items():
            col = self.counters.get(key)
            if col is None:
                col = self.counters[key] = [0.0] * n
            col.append(float(value))
        for key, value in snapshot.get("gauges", {}).items():
            col = self.gauges.get(key)
            if col is None:
                col = self.gauges[key] = [float(value)] * n
            col.append(float(value))
        # Keys absent from this snapshot carry their previous value forward
        # (a counter that stopped being reported has not gone backwards).
        for cols in (self.counters, self.gauges):
            for col in cols.values():
                if len(col) <= n:
                    col.append(col[-1] if col else 0.0)

    def _overwrite_last(self, snapshot: dict) -> None:
        n = len(self.times)
        for key, value in snapshot.get("counters", {}).items():
            col = self.counters.get(key)
            if col is None:
                col = self.counters[key] = [0.0] * n
            col[-1] = float(value)
        for key, value in snapshot.get("gauges", {}).items():
            col = self.gauges.get(key)
            if col is None:
                col = self.gauges[key] = [float(value)] * n
            col[-1] = float(value)

    # -- derivation ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def keys(self) -> list[str]:
        return sorted(self.counters) + sorted(self.gauges)

    def column(self, key: str) -> list[float]:
        if key in self.counters:
            return self.counters[key]
        return self.gauges[key]

    def deltas(self, key: str) -> list[float]:
        """Per-interval increments of a counter column (len == samples - 1)."""
        col = self.column(key)
        return [b - a for a, b in zip(col, col[1:])]

    def rates(self, key: str) -> list[float]:
        """Per-second rates of a counter column over each sample gap."""
        col = self.column(key)
        out = []
        for i in range(1, len(col)):
            dt = self.times[i] - self.times[i - 1]
            out.append((col[i] - col[i - 1]) / dt if dt > 0 else 0.0)
        return out

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": SERIES_FORMAT,
            "interval": self.interval,
            "times": list(self.times),
            "counters": {k: list(v) for k, v in sorted(self.counters.items())},
            "gauges": {k: list(v) for k, v in sorted(self.gauges.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TimeSeriesRecorder":
        fmt = payload.get("format", SERIES_FORMAT)
        if fmt != SERIES_FORMAT:
            raise ValueError(f"unsupported series format {fmt!r}")
        rec = cls(interval=payload.get("interval") or DEFAULT_SERIES_INTERVAL)
        rec.times = [float(t) for t in payload.get("times", [])]
        rec.counters = {k: [float(x) for x in v]
                        for k, v in payload.get("counters", {}).items()}
        rec.gauges = {k: [float(x) for x in v]
                      for k, v in payload.get("gauges", {}).items()}
        return rec

    def to_jsonl(self) -> str:
        """Row-oriented JSONL: one object per sample, ``{"t": ..., key: ...}``."""
        lines = []
        for i, t in enumerate(self.times):
            row: dict = {"t": t}
            for key in sorted(self.counters):
                row[key] = self.counters[key][i]
            for key in sorted(self.gauges):
                row[key] = self.gauges[key][i]
            lines.append(json.dumps(row, sort_keys=False))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_openmetrics(self) -> str:
        """Prometheus/OpenMetrics text exposition of the **last** sample.

        Metric names swap dots for underscores (Prometheus charset); the
        sample's simulated time is attached as the OpenMetrics timestamp so
        scrapes of successive exports preserve ordering.
        """
        if not self.times:
            return "# EOF\n"
        t = self.times[-1]
        lines: list[str] = []
        for kind, cols in (("counter", self.counters), ("gauge", self.gauges)):
            seen_names: set[str] = set()
            for key in sorted(cols):
                name, labels = parse_metric_key(key)
                om_name = name.replace(".", "_").replace("-", "_")
                if kind == "counter":
                    om_name += "_total"
                if om_name not in seen_names:
                    seen_names.add(om_name)
                    lines.append(f"# TYPE {om_name} {kind}")
                label_str = ""
                if labels:
                    inner = ",".join(
                        f'{k}="{v}"' for k, v in sorted(labels.items()))
                    label_str = f"{{{inner}}}"
                value = cols[key][-1]
                lines.append(f"{om_name}{label_str} {value:g} {t:g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def merge_series(series_list: list[dict | None]) -> dict:
    """Merge per-worker series dicts onto a union time grid.

    Each input is a :meth:`TimeSeriesRecorder.to_dict` payload (``None`` and
    empty entries are skipped).  Sample times are unioned and each column is
    forward-filled onto the union grid (step-function semantics: a counter
    holds its last observed value between its own samples, zero before its
    first).  Counters then add across inputs; gauges follow
    last-writer-by-worker-index — the latest input in the list wins at every
    grid point where it has been observed, matching
    :func:`~repro.obs.metrics.merge_snapshots`.
    """
    inputs = [s for s in series_list if s and s.get("times")]
    if not inputs:
        return {"format": SERIES_FORMAT, "interval": 0.0,
                "times": [], "counters": {}, "gauges": {}}
    grid = sorted({float(t) for s in inputs for t in s["times"]})
    index = {t: i for i, t in enumerate(grid)}

    def resampled(times: list[float], col: list[float],
                  fill: float) -> tuple[list[float], list[bool]]:
        out = [fill] * len(grid)
        observed = [False] * len(grid)
        j = 0
        last = fill
        seen = False
        for i, t in enumerate(grid):
            while j < len(times) and float(times[j]) <= t:
                last = float(col[j])
                seen = True
                j += 1
            out[i] = last
            observed[i] = seen
        return out, observed

    merged_counters: dict[str, list[float]] = {}
    merged_gauges: dict[str, list[float]] = {}
    for s in inputs:
        times = [float(t) for t in s["times"]]
        for key, col in s.get("counters", {}).items():
            values, _ = resampled(times, col, 0.0)
            into = merged_counters.get(key)
            if into is None:
                merged_counters[key] = values
            else:
                merged_counters[key] = [a + b for a, b in zip(into, values)]
        for key, col in s.get("gauges", {}).items():
            values, observed = resampled(times, col, 0.0)
            into = merged_gauges.get(key)
            if into is None:
                merged_gauges[key] = values
            else:
                # Later input wins wherever it has actually sampled.
                merged_gauges[key] = [
                    v if obs else prior
                    for prior, v, obs in zip(into, values, observed)]
    del index
    return {
        "format": SERIES_FORMAT,
        "interval": max(float(s.get("interval") or 0.0) for s in inputs),
        "times": grid,
        "counters": {k: merged_counters[k] for k in sorted(merged_counters)},
        "gauges": {k: merged_gauges[k] for k in sorted(merged_gauges)},
    }


def write_series(path, series: dict, *, fmt: str = "json") -> None:
    """Write a series dict as ``json``, ``jsonl`` or ``openmetrics`` text."""
    from pathlib import Path

    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(series, indent=2, sort_keys=True) + "\n")
    elif fmt == "jsonl":
        path.write_text(TimeSeriesRecorder.from_dict(series).to_jsonl())
    elif fmt in ("openmetrics", "prom"):
        path.write_text(TimeSeriesRecorder.from_dict(series).to_openmetrics())
    else:
        raise ValueError(f"unknown series format {fmt!r}")

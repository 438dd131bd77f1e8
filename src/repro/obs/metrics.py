"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is fed by instrumentation hooks in the framework, the DES, the
transport and the checkpoint store.  Snapshots are plain JSON-serializable
dicts, snapshotable mid-run, and **mergeable** across campaign workers
(:func:`merge_snapshots`): counters and histogram buckets add (both merges
are associative and order-independent), while gauges resolve conflicts by
**last-writer-by-worker-index** — the snapshot latest in the list wins, so
the merge is deterministic for any fixed worker ordering.

Instruments are addressed by name plus optional labels
(``registry.counter("transport.bytes", kind="app")`` → key
``transport.bytes{kind=app}``), mirroring the Prometheus data model without
the dependency.

Like the tracer, the disabled default is a shared no-op
(:data:`NULL_METRICS`): instrumentation calls it unconditionally and pays a
no-op method call when telemetry is off.
"""

from __future__ import annotations

import bisect
import json

#: Default histogram buckets (seconds): ~1 µs to ~17 minutes, ×4 steps.
DEFAULT_BUCKETS = tuple(1e-6 * 4 ** i for i in range(15))


def metric_key(name: str, labels: dict) -> str:
    """Canonical instrument key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key`: split ``name{k=v,...}`` back into
    ``(name, labels)``.  Keys without a label block parse to ``(key, {})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    for pair in inner.split(","):
        if not pair:
            continue
        k, _, v = pair.partition("=")
        labels[k] = v
    return name, labels


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set_total(self, total: float) -> None:
        """Reconcile with an externally kept running total (sampling a cheap
        native counter into the registry at snapshot time)."""
        if total > self.value:
            self.value = total


class Gauge:
    """Last-set value (merged across workers by last-writer-by-worker-index)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with percentile estimates.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything larger.  Percentiles are estimated as the upper bound
    of the bucket containing the requested rank — exact enough for the
    overhead-distribution tables the paper reports.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (``p`` in [0, 100])."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(p / 100.0 * self.count)))
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= rank:
                if i < len(self.buckets):
                    return min(self.buckets[i], self.max)
                return self.max
        return self.max


class _NullInstrument:
    """Stand-in instrument whose mutators all do nothing."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set_total(self, total: float) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


class NullMetrics:
    """Do-nothing registry: the overhead-neutral default."""

    enabled = False
    _instrument = _NullInstrument()

    def counter(self, name: str, **labels) -> _NullInstrument:
        return self._instrument

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return self._instrument

    def histogram(self, name: str, buckets=None, **labels) -> _NullInstrument:
        return self._instrument

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The shared no-op registry every un-instrumented run uses.
NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """Live registry of named instruments for one run (or one process)."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) --------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        key = metric_key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(buckets or DEFAULT_BUCKETS)
        return inst

    # -- snapshots -------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable view of every instrument (callable mid-run)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "min": h.min if h.count else 0.0,
                    "max": h.max if h.count else 0.0,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, **meta) -> str:
        payload = dict(meta)
        payload.update(self.snapshot())
        return json.dumps(payload, indent=2, sort_keys=True)


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-worker metric snapshots into one campaign-wide snapshot.

    Counters add and histograms add bucket counts element-wise — both merges
    are associative and independent of snapshot order.  Gauges are
    *last-writer-by-worker-index*: when two snapshots carry the same gauge
    key, the value from the snapshot appearing later in ``snapshots`` wins.
    Callers pass snapshots in worker-index order (campaigns do), which
    makes conflicting gauges deterministic without pretending a max or mean
    is meaningful for a last-set value.  Histogram snapshots with differing
    bucket layouts for the same key are rejected — they came from
    incompatible instrument definitions.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        if not snap:
            continue
        for key, value in snap.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0.0) + value
        for key, value in snap.get("gauges", {}).items():
            merged["gauges"][key] = value
        for key, h in snap.get("histograms", {}).items():
            into = merged["histograms"].get(key)
            if into is None:
                merged["histograms"][key] = {
                    "buckets": list(h["buckets"]), "counts": list(h["counts"]),
                    "sum": h["sum"], "count": h["count"],
                    "min": h["min"], "max": h["max"],
                }
                continue
            if into["buckets"] != list(h["buckets"]):
                raise ValueError(f"histogram {key!r}: incompatible buckets")
            prior_count = into["count"]
            into["counts"] = [a + b for a, b in zip(into["counts"], h["counts"])]
            into["sum"] += h["sum"]
            into["count"] += h["count"]
            if h["count"]:
                if prior_count:
                    into["min"] = min(into["min"], h["min"])
                    into["max"] = max(into["max"], h["max"])
                else:
                    into["min"], into["max"] = h["min"], h["max"]
    return merged


def snapshot_percentile(hist: dict, p: float) -> float:
    """Percentile estimate from a *snapshotted* histogram dict."""
    count = hist.get("count", 0)
    if not count:
        return 0.0
    rank = max(1, int(round(p / 100.0 * count)))
    cumulative = 0
    buckets = hist["buckets"]
    for i, c in enumerate(hist["counts"]):
        cumulative += c
        if cumulative >= rank:
            if i < len(buckets):
                return min(buckets[i], hist["max"])
            return hist["max"]
    return hist["max"]

"""Typed metric primitives: counters, gauges, fixed-bucket histograms.

The paper's evaluation is about *per-operator* behaviour — Figure 5
traces state and work units per stage, and the pipeline-parallel
throughput model says a job is bounded by its busiest stage. Production
engines (CORE, SPECTRE, Flink's operator metrics) expose exactly this
telemetry; this module provides the primitives the runtime uses to do
the same without third-party dependencies.

Design constraints:

* **Serializable.** Shard results cross a process boundary as plain
  data, so every metric renders to a typed ``dict`` (``to_dict``) and
  two serialized trees merge structurally (:func:`merge_metric_trees`).
* **Bounded memory.** Latency histograms use fixed bucket boundaries —
  p50/p95/p99 come from bucket interpolation, never from storing raw
  samples, so per-event recording is O(log buckets) time and O(1) space.
* **Mergeable.** Counters add, histograms add bucket-wise, and gauges
  declare their aggregation (``sum`` for state bytes across shards,
  ``max`` for watermark lag, ``last`` for configuration echoes).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Mapping

#: Upper bucket bounds (seconds) for per-event latency histograms:
#: roughly logarithmic from 1µs to 10s (1-2-5 per decade), plus an
#: implicit overflow bucket.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = tuple(
    round(base * 10.0**exponent, 12) for exponent in range(-6, 1) for base in (1.0, 2.0, 5.0)
) + (10.0,)


class Counter:
    """Monotonically increasing count; shard merges add values."""

    __slots__ = ("value",)

    def __init__(self, value: int | float = 0):
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Point-in-time value with an explicit merge aggregation."""

    __slots__ = ("value", "agg")

    def __init__(self, value: float = 0.0, agg: str = "last"):
        if agg not in ("sum", "max", "min", "last"):
            raise ValueError(f"unknown gauge aggregation '{agg}'")
        self.value = value
        self.agg = agg

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value, "agg": self.agg}


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything beyond the last bound. Percentiles interpolate linearly
    inside the winning bucket and clamp to the observed min/max, so a
    single-observation histogram reports that exact value.
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS):
        self.bounds: tuple[float, ...] = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        return percentile_from_buckets(
            self.bounds, self.counts, self.count, self.vmin, self.vmax, q
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
        }


def percentile_from_buckets(
    bounds: tuple[float, ...] | list[float],
    counts: list[int],
    count: int,
    vmin: float,
    vmax: float,
    q: float,
) -> float:
    """Estimate the q-th percentile (0 < q <= 100) from bucket counts.

    The rank ``q/100 * count`` is located in the cumulative bucket
    distribution; within the winning bucket the value is interpolated
    between the bucket's edges (the overflow bucket's upper edge is the
    observed max). The result is clamped to [min, max] so degenerate
    histograms (one bucket, one observation) stay exact.
    """
    if count <= 0:
        return 0.0
    rank = (q / 100.0) * count
    cumulative = 0.0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else vmax
            fraction = (rank - previous) / bucket_count
            value = lower + fraction * (upper - lower)
            return max(vmin, min(vmax, value))
    return vmax


class ScopedMetrics:
    """One scope's named metrics."""

    def __init__(self, scope: str, store: dict[str, Any]):
        self.scope = scope
        self._store = store

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str, agg: str = "last") -> Gauge:
        metric = self._store.get(name)
        if metric is None:
            metric = Gauge(agg=agg)
            self._store[name] = metric
        return metric

    def histogram(self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS) -> Histogram:
        metric = self._store.get(name)
        if metric is None:
            metric = Histogram(bounds)
            self._store[name] = metric
        return metric

    def _get_or_create(self, name: str, factory):
        metric = self._store.get(name)
        if metric is None:
            metric = factory()
            self._store[name] = metric
        return metric


class MetricsRegistry:
    """Named metric scopes (a served job's ``ingress`` and ``rounds``),
    serializable as one tree.

    The registry is a two-level namespace: scope -> metric name ->
    metric. ``to_dict`` renders the typed tree, the shape of a job's
    per-operator tree.
    """

    def __init__(self) -> None:
        self._scopes: dict[str, dict[str, Any]] = {}

    def scope(self, name: str) -> ScopedMetrics:
        store = self._scopes.setdefault(name, {})
        return ScopedMetrics(name, store)

    def scopes(self) -> list[str]:
        return list(self._scopes)

    def to_dict(self) -> dict[str, dict[str, Any]]:
        return {
            scope: {
                name: metric.to_dict() for name, metric in entries.items()
            }
            for scope, entries in self._scopes.items()
        }


def _fold_histogram(total: dict[str, Any], other: Mapping[str, Any]) -> None:
    if total["bounds"] != other["bounds"]:
        raise ValueError("cannot merge histograms with different bounds")
    if other["count"]:
        seen = total["count"] > 0
        total["min"] = min(total["min"], other["min"]) if seen else other["min"]
        total["max"] = max(total["max"], other["max"]) if seen else other["max"]
    total["counts"] = [a + b for a, b in zip(total["counts"], other["counts"])]
    total["count"] += other["count"]
    total["sum"] += other["sum"]


def _fold_metric(total: dict[str, Any], other: Mapping[str, Any]) -> None:
    mtype = total.get("type")
    if mtype != other.get("type"):
        return
    if mtype == "counter":
        total["value"] += other["value"]
    elif mtype == "gauge":
        agg = total.get("agg", "last")
        if agg == "sum":
            total["value"] += other["value"]
        elif agg == "max":
            total["value"] = max(total["value"], other["value"])
        elif agg == "min":
            total["value"] = min(total["value"], other["value"])
        else:
            total["value"] = other["value"]
    elif mtype == "histogram":
        _fold_histogram(total, other)
    elif mtype is None:
        # Plain nested mapping: fold recursively.
        fold_metric_tree(total, other)


def fold_metric_tree(total: dict[str, Any], tree: Mapping[str, Any]) -> None:
    """Add the serialized metric ``tree`` into ``total``, in place.

    Counters and histogram buckets add, gauges combine per their declared
    aggregation, plain annotations (kind, names) keep the first value.
    What ``total`` lacks is copied in, so it never shares a node with a
    folded tree. The trees are ``to_dict`` output or parsed JSON, so a
    node is a ``dict``.
    """
    for key, value in tree.items():
        if key not in total:
            total[key] = _copy_tree(value)
        elif isinstance(total[key], dict) and isinstance(value, dict):
            _fold_metric(total[key], value)


def merge_metric_trees(
    trees: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """Structurally merge serialized metric trees (shard roll-up):
    :func:`fold_metric_tree` of each into one new tree."""
    merged: dict[str, Any] = {}
    for tree in trees:
        fold_metric_tree(merged, tree)
    return merged


def _copy_tree(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _copy_tree(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy_tree(v) for v in value]
    return value


def summarize_metric(value: Any) -> Any:
    """Collapse one typed metric dict to its human-facing summary.

    Counters and gauges become their value; histograms become a dict of
    count/mean/min/max and interpolated p50/p95/p99. Anything else (plain
    annotations, nested trees) passes through.
    """
    if isinstance(value, Mapping):
        mtype = value.get("type")
        if mtype in ("counter", "gauge"):
            return value["value"]
        if mtype == "histogram":
            bounds, counts = value["bounds"], value["counts"]
            count, vmin, vmax = value["count"], value["min"], value["max"]
            return {
                "count": count,
                "mean": (value["sum"] / count) if count else 0.0,
                "min": vmin,
                "max": vmax,
                "p50": percentile_from_buckets(bounds, counts, count, vmin, vmax, 50),
                "p95": percentile_from_buckets(bounds, counts, count, vmin, vmax, 95),
                "p99": percentile_from_buckets(bounds, counts, count, vmin, vmax, 99),
            }
    return value

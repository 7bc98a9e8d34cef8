"""Small statistics shared by the workloads and the comparison."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def better_quartile(values: Sequence[float], better: str) -> float:
    """The quartile of a set of repetitions on its better side (``better``
    is ``"lower"`` or ``"higher"``).

    Noise on a shared sandbox only ever slows a repetition (identical work
    cost the server 2.3 to 3.9 CPU-seconds within one minute), so the
    better side is the clean one; the quartile rather than the best, so
    that one lucky repetition does not set the figure either. Of five
    repetitions this is the second best.
    """
    return percentile(values, 25 if better == "lower" else 75)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median — the
    quantity the bounds in ``BENCHMARK.json`` are compared with."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def bucket_percentile(histogram: dict, q: float) -> float:
    """Percentile of a published ``repro.metrics/v1`` histogram dict
    (``bounds`` are inclusive upper edges, one overflow bucket)."""
    count = histogram.get("count", 0)
    if not count:
        return 0.0
    edges = [histogram["min"], *histogram["bounds"], histogram["max"]]
    rank = q / 100.0 * count
    seen = 0
    for index, bucket in enumerate(histogram["counts"]):
        if bucket and seen + bucket >= rank:
            low = max(edges[index], histogram["min"])
            high = min(edges[index + 1], histogram["max"])
            return low + (high - low) * (rank - seen) / bucket
        seen += bucket
    return histogram["max"]

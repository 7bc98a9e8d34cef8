"""Measurement primitives for the experiments.

The paper's two metrics (Section 5.1.3):

* **maximum sustainable throughput** in tuples/second — here the measured
  in-process processing rate over a fixed finite workload (a single
  process cannot out-ingest itself, so the processing rate *is* the
  sustainable rate);
* **detection latency** — wall-clock time from the creation of the newest
  contributing event to the match reaching the sink
  (:class:`~repro.asp.operators.sink.LatencySink`).

Resource usage (Figure 5) is sampled from the executor: state bytes act
as the memory curve, and the per-interval work-unit rate (elementary
operations per wall second, normalized) acts as the CPU-usage proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.asp.runtime import RunResult


@dataclass(frozen=True)
class ThroughputMeasurement:
    """One measured configuration of one approach."""

    label: str                  # e.g. "FCEP", "FASP", "FASP-O1"
    pattern: str                # e.g. "SEQ1"
    events_in: int
    matches: int
    wall_seconds: float
    throughput_tps: float
    peak_state_bytes: int
    work_units: int
    failed: bool = False
    failure: str | None = None
    mean_latency_s: float | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def output_selectivity_pct(self) -> float:
        if self.events_in == 0:
            return 0.0
        return 100.0 * self.matches / self.events_in

    @staticmethod
    def from_run(
        label: str,
        pattern: str,
        result: RunResult,
        matches: int,
        mean_latency_s: float | None = None,
        **extras: Any,
    ) -> "ThroughputMeasurement":
        # Backend-reported run metadata (backend name, shard count,
        # makespan) rides along; explicit extras win on key collision.
        merged = dict(result.metadata)
        merged.update(extras)
        return ThroughputMeasurement(
            label=label,
            pattern=pattern,
            events_in=result.events_in,
            matches=matches,
            wall_seconds=result.wall_seconds,
            throughput_tps=result.throughput_tps,
            peak_state_bytes=result.peak_state_bytes,
            work_units=result.work_units,
            failed=result.failed,
            failure=result.failure,
            mean_latency_s=mean_latency_s,
            extras=merged,
        )


@dataclass(frozen=True)
class ResourceSample:
    """One point of the Figure 5 time series."""

    wall_s: float
    events_in: int
    state_bytes: int
    work_units: int


def resource_series(result: RunResult) -> list[ResourceSample]:
    return [
        ResourceSample(
            wall_s=s["wall_s"],
            events_in=s["events_in"],
            state_bytes=s["state_bytes"],
            work_units=s["work_units"],
        )
        for s in result.samples
    ]


def cpu_proxy_series(samples: Sequence[ResourceSample]) -> list[tuple[float, float]]:
    """Per-interval work rate normalized to the peak: the CPU-% stand-in.

    Returns (wall_s, utilization in 0..100) pairs.
    """
    if len(samples) < 2:
        return []
    rates: list[tuple[float, float]] = []
    for prev, cur in zip(samples, samples[1:]):
        dt = cur.wall_s - prev.wall_s
        dwork = cur.work_units - prev.work_units
        rates.append((cur.wall_s, dwork / dt if dt > 0 else 0.0))
    peak = max((r for _t, r in rates), default=0.0)
    if peak <= 0:
        return [(t, 0.0) for t, _r in rates]
    # min() guards the 100.00000000000001 floating-point epsilon at the peak.
    return [(t, min(100.0, 100.0 * r / peak)) for t, r in rates]


def speedup(baseline: ThroughputMeasurement, other: ThroughputMeasurement) -> float:
    """``other`` relative to ``baseline`` (the paper's "Nx faster")."""
    if baseline.throughput_tps <= 0:
        return float("inf")
    return other.throughput_tps / baseline.throughput_tps


def format_tps(tps: float) -> str:
    if tps >= 1_000_000:
        return f"{tps / 1_000_000:.2f}M tpl/s"
    if tps >= 1_000:
        return f"{tps / 1_000:.1f}k tpl/s"
    return f"{tps:.0f} tpl/s"


def format_bytes(num: int) -> str:
    value = float(num)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{value:.1f} GB"

"""Operator-level observability for the ASP runtime.

Three layers:

* :mod:`~repro.asp.runtime.observability.registry` — typed metric
  primitives (counters, gauges, fixed-bucket latency histograms) that
  serialize to mergeable trees;
* :mod:`~repro.asp.runtime.observability.operator_metrics` — per-operator
  telemetry the backends update on the hot path (busy time, exact event
  counts, stride-sampled processing latency, watermark lag) plus
  operator-specialized counters via
  :meth:`~repro.asp.operators.base.Operator.collect_metrics`;
* :mod:`~repro.asp.runtime.observability.report` — machine-readable run
  reports (``--metrics-json`` / ``repro metrics``) with p50/p95/p99
  derived from bucket interpolation, never raw samples;
* :mod:`~repro.asp.runtime.observability.costprofile` — the read side:
  a :class:`CostProfile` parses a finished report back into per-operator
  observations that feed the query optimizer's metrics-fed cost model.
"""

from repro.asp.runtime.observability.costprofile import (
    CostProfile,
    JoinObservation,
    ScanObservation,
)
from repro.asp.runtime.observability.operator_metrics import (
    LATENCY_SAMPLE_SHIFT,
    OperatorMetrics,
)
from repro.asp.runtime.observability.registry import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedMetrics,
    fold_metric_tree,
    merge_metric_trees,
    percentile_from_buckets,
    summarize_metric,
)
from repro.asp.runtime.observability.report import (
    load_report,
    render_metrics_summary,
    run_report,
    summarize_operator,
    write_metrics_json,
)

__all__ = [
    "CostProfile",
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "JoinObservation",
    "LATENCY_SAMPLE_SHIFT",
    "MetricsRegistry",
    "OperatorMetrics",
    "ScanObservation",
    "ScopedMetrics",
    "fold_metric_tree",
    "load_report",
    "merge_metric_trees",
    "percentile_from_buckets",
    "render_metrics_summary",
    "run_report",
    "summarize_metric",
    "summarize_operator",
    "write_metrics_json",
]

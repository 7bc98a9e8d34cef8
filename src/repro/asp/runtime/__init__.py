"""Layered execution runtime for the ASP engine.

The runtime splits the former monolithic ``Executor`` into four tiers,
mirroring how an actual ASPS is layered (paper Section 2, processing
model):

* :mod:`~repro.asp.runtime.scheduler` — source merging and the
  watermark service (what drives a job);
* :mod:`~repro.asp.runtime.channels` — typed in-memory edges carrying
  item/watermark frames between operators (what connects a job);
* :mod:`~repro.asp.runtime.instrumentation` — per-stage busy time,
  state sampling and budget enforcement (what observes a job);
* :mod:`~repro.asp.runtime.observability` — typed metrics (counters,
  gauges, fixed-bucket latency histograms), per-operator telemetry and
  machine-readable run reports (how a job explains itself);
* :mod:`~repro.asp.runtime.backends` — pluggable execution strategies
  behind the :class:`~repro.asp.runtime.backends.base.ExecutionBackend`
  protocol: :class:`SerialBackend` (the depth-first reference) and
  :class:`ShardedBackend` (key-partitioned execution with a measured
  makespan — optimization O3 made physical);
* :mod:`~repro.asp.runtime.fault` — checkpoint/recovery and the seeded
  fault-injection (chaos) harness (what keeps a job alive).
"""

from repro.asp.runtime.backends import (
    DEFAULT_SAMPLE_EVERY,
    ExecutionBackend,
    ExecutionSettings,
    SerialBackend,
    ShardedBackend,
    resolve_backend,
    run_dataflow,
)
from repro.asp.runtime.channels import Channel, build_channels
from repro.asp.runtime.clock import RuntimeClock
from repro.asp.runtime.fault import (
    CheckpointCoordinator,
    DirectoryCheckpointStore,
    FaultPlan,
    FaultSpec,
    InMemoryCheckpointStore,
    Lane,
    RecoveryReport,
    checkpoint_metrics,
    open_lanes,
    parse_fault_plan,
)
from repro.asp.runtime.instrumentation import Instrumentation
from repro.asp.runtime.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OperatorMetrics,
    fold_metric_tree,
    load_report,
    merge_metric_trees,
    render_metrics_summary,
    run_report,
    write_metrics_json,
)
from repro.asp.runtime.result import RunResult, merge_shard_results
from repro.asp.runtime.scheduler import WatermarkService, merge_sources

__all__ = [
    "Channel",
    "CheckpointCoordinator",
    "Counter",
    "DEFAULT_SAMPLE_EVERY",
    "DirectoryCheckpointStore",
    "ExecutionBackend",
    "ExecutionSettings",
    "FaultPlan",
    "FaultSpec",
    "Gauge",
    "Histogram",
    "InMemoryCheckpointStore",
    "Instrumentation",
    "Lane",
    "MetricsRegistry",
    "OperatorMetrics",
    "RecoveryReport",
    "RunResult",
    "RuntimeClock",
    "SerialBackend",
    "ShardedBackend",
    "WatermarkService",
    "build_channels",
    "checkpoint_metrics",
    "fold_metric_tree",
    "open_lanes",
    "parse_fault_plan",
    "load_report",
    "merge_metric_trees",
    "merge_shard_results",
    "merge_sources",
    "render_metrics_summary",
    "resolve_backend",
    "run_dataflow",
    "run_report",
    "write_metrics_json",
]

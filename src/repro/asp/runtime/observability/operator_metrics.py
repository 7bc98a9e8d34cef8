"""Per-operator telemetry updated on the executor's hot path.

The backend (not the operator) counts events in/out and observes the
per-event processing latency, so every operator — stateless filters and
the monolithic CEP operator alike — reports the same core metrics
without touching its data path. Operators contribute their *specialized*
counters (pairs tested, windows fired, NFA matches) through
:meth:`~repro.asp.operators.base.Operator.collect_metrics`, which this
module records beside them at the end of a run.

Every count is a total over the stream prefix the job has processed:
the backend's counts travel in the checkpoint next to the operator's
own state (:meth:`OperatorMetrics.snapshot`), so a restored job, a
crashed run's retry and a serve job's next round keep counting where
the stream stands. Only busy time is per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.asp.runtime.observability.registry import (
    DEFAULT_LATENCY_BOUNDS,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedMetrics,
)

#: The hot path observes the latency histogram for one event in
#: ``LATENCY_SAMPLE_MASK + 1`` (a uniform stride sample — unbiased for
#: percentiles, and it keeps per-hop overhead well under the cost of the
#: busy-time clock that was already there). Event counts stay exact.
LATENCY_SAMPLE_MASK = 7


class OperatorMetrics:
    """Live counters for one operator instance of one running job.

    The serial backend updates busy time, ``events_in``/``events_out``
    and the (stride-sampled) latency histogram inline — plain attribute
    increments, one struct lookup per hop; :meth:`record` copies the
    numbers out when a run finishes. The counts and the histogram are
    totals of the job; busy time is the current run's.
    """

    __slots__ = ("scope", "kind", "busy", "events_in", "events_out", "watermark_calls", "latency")

    def __init__(self, scope: str, kind: str):
        self.scope = scope
        self.kind = kind
        self.busy = 0.0
        self.events_in = 0
        self.events_out = 0
        self.watermark_calls = 0
        self.latency = Histogram(DEFAULT_LATENCY_BOUNDS)

    def snapshot(self) -> list:
        """The counts a checkpoint carries, as plain numbers."""
        h = self.latency
        counts = [self.events_in, self.events_out, self.watermark_calls]
        return counts + [list(h.counts), h.count, h.total, h.vmin, h.vmax]

    def restore(self, snapshot: list) -> None:
        h = self.latency
        self.events_in, self.events_out, self.watermark_calls = snapshot[:3]
        counts, h.count, h.total, h.vmin, h.vmax = snapshot[3:]
        h.counts = list(counts)

    def record(self, operator: Any, watermark_lag_ms: int = 0) -> "OperatorRecord":
        """The counts so far, the operator's state sizes and its own counters."""
        return OperatorRecord(
            self.kind,
            [self.events_in, self.events_out, self.watermark_calls],
            self.latency.to_dict(),
            # Shards run concurrently, so their peaks coexist: sum, like
            # the job-level peak_state_bytes in merge_shard_results.
            [
                operator.state_size_bytes(), operator.state_items(),
                operator.state_peak_bytes(), operator.state_peak_items(),
            ],
            watermark_lag_ms,
            operator.collect_metrics(),
        )


_COUNTERS = ("events_in", "events_out", "watermark_calls")
_STATE_GAUGES = ("state_bytes", "state_items", "state_peak_bytes", "state_peak_items")


@dataclass(slots=True)
class OperatorRecord:
    """One operator's numbers at the end of a run, as plain values.

    A run ends by recording, not by publishing: the typed tree is built
    from the records when ``RunResult.metrics`` is read.
    """

    kind: str
    counts: list[int]  # in _COUNTERS order
    latency: dict[str, Any]  # the histogram's typed dict
    state: list[int]  # in _STATE_GAUGES order
    watermark_lag_ms: int
    extra: dict[str, int | float]  # the operator's collect_metrics()

    def publish(self, scoped: ScopedMetrics) -> None:
        """Fill the registry scope with this operator's metrics."""
        scoped.annotate("kind", self.kind)
        for name, value in zip(_COUNTERS, self.counts):
            scoped.counter(name).inc(value)
        scoped.attach("latency_s", self.latency)
        for name, value in zip(_STATE_GAUGES, self.state):
            scoped.attach(name, Gauge(value, agg="sum"))
        scoped.attach("watermark_lag_ms", Gauge(self.watermark_lag_ms, agg="max"))
        for name, value in self.extra.items():
            scoped.counter(name).inc(value)


def operator_metrics_tree(records: dict[str, OperatorRecord]) -> dict[str, Any]:
    """The per-operator typed metric tree of ``records``.

    Keys are ``name#node_id`` scopes — stable across shard clones (the
    sharded backend deep-copies the graph, preserving node ids), which is
    what makes per-shard records roll up scope-by-scope.
    """
    registry = MetricsRegistry()
    for scope, record in records.items():
        record.publish(registry.scope(scope))
    return registry.to_dict()

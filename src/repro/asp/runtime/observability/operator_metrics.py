"""Per-operator telemetry updated on the executor's hot path.

The backend (not the operator) counts events in/out and observes the
per-event processing latency, so every operator — stateless filters and
the monolithic CEP operator alike — reports the same core metrics
without touching its data path. Operators contribute their *specialized*
counters (pairs tested, windows fired, NFA matches) through
:meth:`~repro.asp.operators.base.Operator.collect_metrics`, which this
module records beside them at the end of a run.
"""

from __future__ import annotations

from copy import deepcopy
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


#: What a run too short for the stride sample records as its latency: the
#: run's own (empty) histogram stays with the next run.
_UNSAMPLED = Histogram(DEFAULT_LATENCY_BOUNDS)


class OperatorMetrics:
    """Live counters for one operator instance of one running job.

    The serial backend updates busy time, ``events_in``/``events_out``
    and the (stride-sampled) latency histogram inline — plain attribute
    increments, one struct lookup per hop; :meth:`record` hands the
    numbers over once the run finishes.
    """

    __slots__ = ("scope", "kind", "busy", "events_in", "events_out", "watermark_calls", "latency")

    def __init__(self, scope: str, kind: str):
        self.scope = scope
        self.kind = kind
        self.latency = Histogram(DEFAULT_LATENCY_BOUNDS)
        self.reset()

    def reset(self) -> None:
        """Zero everything measured; a job that runs again reports each
        run on its own (fused segments keep their reference to this
        object)."""
        self.busy = 0.0
        self.events_in = 0
        self.events_out = 0
        self.watermark_calls = 0
        if self.latency.count:  # the last run's record took it
            self.latency = Histogram(DEFAULT_LATENCY_BOUNDS)

    @property
    def selectivity(self) -> float:
        """Output items per input item (> 1 for expanding operators)."""
        return self.events_out / self.events_in if self.events_in else 0.0

    def record(self, operator: Any, watermark_lag_ms: int = 0) -> "OperatorRecord":
        """This run's numbers, the operator's state sizes and its own counters."""
        return OperatorRecord(
            self.kind,
            [self.events_in, self.events_out, self.watermark_calls],
            self.latency if self.latency.count else _UNSAMPLED,
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
    """One operator's numbers over a finished run, as plain values.

    A run ends by recording, not by publishing: the typed tree is built
    from the records when ``RunResult.metrics`` is read. :meth:`add` is
    the roll-up of shard clones and of a serve job's rounds alike, with
    :func:`~repro.asp.runtime.observability.registry.fold_metric_tree`'s
    rules: counts and histogram buckets add, the state gauges sum, the
    watermark lag takes the max. Only a copy may be added to.
    """

    kind: str
    counts: list[int]  # in _COUNTERS order
    latency: Histogram
    state: list[int]  # in _STATE_GAUGES order
    watermark_lag_ms: int
    extra: dict[str, int | float]  # the operator's collect_metrics()

    def add(self, other: "OperatorRecord") -> None:
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        if other.latency.count:
            self.latency.add(other.latency)
        self.state = [a + b for a, b in zip(self.state, other.state)]
        self.watermark_lag_ms = max(self.watermark_lag_ms, other.watermark_lag_ms)
        for name, value in other.extra.items():
            self.extra[name] = self.extra.get(name, 0) + value

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


def add_operator_records(
    total: dict[str, OperatorRecord], records: dict[str, OperatorRecord]
) -> None:
    """Add one run's ``records`` into the running ``total``, in place."""
    for scope, record in records.items():
        if scope in total:
            total[scope].add(record)
        else:
            total[scope] = deepcopy(record)


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

"""Per-operator telemetry updated on the executor's hot path.

The backend (not the operator) counts events in/out and observes the
per-event processing latency, so every operator — stateless filters and
the monolithic CEP operator alike — reports the same core metrics
without touching its data path. Operators contribute their *specialized*
counters (pairs tested, windows fired, NFA matches) through
:meth:`~repro.asp.operators.base.Operator.collect_metrics`, which this
module folds into the published scope at the end of a run.
"""

from __future__ import annotations

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
    increments, one struct lookup per hop; :meth:`publish` renders
    everything into a :class:`MetricsRegistry` scope once the run
    finishes.
    """

    __slots__ = ("scope", "kind", "busy", "events_in", "events_out", "watermark_calls", "latency")

    def __init__(self, scope: str, kind: str):
        self.scope = scope
        self.kind = kind
        self.reset()

    def reset(self) -> None:
        """Zero everything measured; a job that runs again reports each
        run on its own (fused segments keep their reference to this
        object)."""
        self.busy = 0.0
        self.events_in = 0
        self.events_out = 0
        self.watermark_calls = 0
        self.latency = Histogram(DEFAULT_LATENCY_BOUNDS)

    @property
    def selectivity(self) -> float:
        """Output items per input item (> 1 for expanding operators)."""
        return self.events_out / self.events_in if self.events_in else 0.0

    def publish(
        self,
        scoped: ScopedMetrics,
        operator: Any,
        *,
        watermark_lag_ms: int = 0,
    ) -> None:
        """Fill the registry scope with this operator's metrics."""
        scoped.annotate("kind", self.kind)
        scoped.counter("events_in").inc(self.events_in)
        scoped.counter("events_out").inc(self.events_out)
        scoped.counter("watermark_calls").inc(self.watermark_calls)
        scoped.attach("latency_s", self.latency)
        scoped.attach("state_bytes", Gauge(operator.state_size_bytes(), agg="sum"))
        scoped.attach("state_items", Gauge(operator.state_items(), agg="sum"))
        # Shards run concurrently, so their peaks coexist: sum, like the
        # job-level peak_state_bytes accounting in merge_shard_results.
        scoped.attach("state_peak_bytes", Gauge(operator.state_peak_bytes(), agg="sum"))
        scoped.attach("state_peak_items", Gauge(operator.state_peak_items(), agg="sum"))
        scoped.attach("watermark_lag_ms", Gauge(watermark_lag_ms, agg="max"))
        for name, value in operator.collect_metrics().items():
            scoped.counter(name).inc(value)


def operator_metrics_tree(
    op_metrics: dict[int, OperatorMetrics],
    flow: Any,
    watermark_delays: dict[int, int] | None = None,
) -> dict[str, Any]:
    """Assemble the per-operator typed metric tree of one finished run.

    Keys are ``name#node_id`` scopes — stable across shard clones (the
    sharded backend deep-copies the graph, preserving node ids), which is
    what makes per-shard trees merge scope-by-scope.
    """
    delays = watermark_delays or {}
    registry = MetricsRegistry()
    for node in flow.operator_nodes():
        metrics = op_metrics[node.node_id]
        metrics.publish(
            registry.scope(metrics.scope),
            node.operator,
            watermark_lag_ms=delays.get(node.node_id, 0),
        )
    return registry.to_dict()

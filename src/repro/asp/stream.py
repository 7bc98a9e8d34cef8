"""Fluent DataStream API over the dataflow graph.

This is the user-facing query construction layer, mirroring the Stream
APIs the paper reviews (Flink/Beam/Spark/Storm/Kafka Streams — Section
4.2.1). Each method appends an operator node and returns a new
:class:`StreamHandle`, so queries read as pipelines:

    env = StreamEnvironment("quickstart")
    q = env.add_source(q_source).filter(lambda e: e.value > 50)
    v = env.add_source(v_source)
    (q.window_join(v, window=sliding(minutes(15), minutes(1)),
                   theta=lambda l, r: l.ts < r.ts)
      .sink(CollectSink()))
    result = env.execute()

The CEP-to-ASP translator (:mod:`repro.mapping.translator`) targets this
API, exactly as the paper's mapping targets Flink's DataStream API.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Literal, Sequence

from repro.asp.datamodel import Event
from repro.asp.graph import Dataflow
from repro.asp.runtime import (
    ExecutionBackend,
    ExecutionSettings,
    RunResult,
    resolve_backend,
)
from repro.asp.operators.aggregate import SortedWindowUdfAggregate, WindowAggregate
from repro.asp.operators.base import Item, Operator
from repro.asp.operators.filter import FilterOperator, TypeFilterOperator
from repro.asp.operators.join import IntervalJoin, SlidingWindowJoin
from repro.asp.operators.kleene import KleeneIterOperator
from repro.asp.operators.keyby import KeyByOperator, KeySelector
from repro.asp.operators.map import FlatMapOperator, MapOperator, SchemaAlignOperator
from repro.asp.operators.process import NextOccurrenceUdf
from repro.asp.operators.sink import CollectSink, Sink
from repro.asp.operators.source import ListSource, Source
from repro.asp.operators.union import UnionOperator
from repro.asp.operators.window import IntervalBounds, WindowSpec
from repro.asp.time import MS_PER_MINUTE


class StreamHandle:
    """A logical stream: the output of one node in the dataflow."""

    def __init__(self, env: "StreamEnvironment", node_id: int):
        self._env = env
        self._node_id = node_id

    # -- unary transforms ---------------------------------------------------

    def transform(self, operator: Operator) -> "StreamHandle":
        """Attach any custom unary operator (the UDF escape hatch)."""
        node = self._env.flow.add_operator(operator)
        self._env.flow.connect(self._node_id, node, port=0)
        return StreamHandle(self._env, node)

    # Backwards-compatible internal alias.
    _attach = transform

    def filter(self, predicate: Callable[[Item], bool], name: str | None = None) -> "StreamHandle":
        return self._attach(FilterOperator(predicate, name=name))

    def filter_type(self, event_type: str) -> "StreamHandle":
        return self._attach(TypeFilterOperator(event_type))

    def map(self, fn: Callable[[Item], Item], name: str | None = None) -> "StreamHandle":
        return self._attach(MapOperator(fn, name=name))

    def flat_map(self, fn: Callable[[Item], Iterable[Item]], name: str | None = None) -> "StreamHandle":
        return self._attach(FlatMapOperator(fn, name=name))

    def align_schema(self, target_type: str | None = None, **kwargs: Any) -> "StreamHandle":
        return self._attach(SchemaAlignOperator(target_type=target_type, **kwargs))

    def key_by(self, selector: KeySelector, name: str | None = None) -> "StreamHandle":
        return self._attach(KeyByOperator(selector, name=name))

    # -- multi-input transforms ------------------------------------------------

    def union(self, *others: "StreamHandle", name: str | None = None) -> "StreamHandle":
        operator = UnionOperator(arity=1 + len(others), name=name)
        node = self._env.flow.add_operator(operator)
        self._env.flow.connect(self._node_id, node, port=0)
        for port, other in enumerate(others, start=1):
            self._env.flow.connect(other._node_id, node, port=port)
        return StreamHandle(self._env, node)

    def window_join(
        self,
        other: "StreamHandle",
        window: WindowSpec,
        theta: Callable[[Item, Item], bool] | None = None,
        keys: tuple[KeySelector, KeySelector] | None = None,
        emit_ts: Literal["min", "max"] = "max",
        emit_duplicates: bool = False,
        name: str | None = None,
    ) -> "StreamHandle":
        """Sliding-window join (the default FASP join)."""
        left_key, right_key = keys if keys else (None, None)
        operator = SlidingWindowJoin(
            window,
            theta=theta,
            left_key=left_key,
            right_key=right_key,
            emit_ts=emit_ts,
            emit_duplicates=emit_duplicates,
            name=name,
        )
        node = self._env.flow.add_operator(operator)
        self._env.flow.connect(self._node_id, node, port=0)
        self._env.flow.connect(other._node_id, node, port=1)
        return StreamHandle(self._env, node)

    def interval_join(
        self,
        other: "StreamHandle",
        bounds: IntervalBounds,
        theta: Callable[[Item, Item], bool] | None = None,
        keys: tuple[KeySelector, KeySelector] | None = None,
        emit_ts: Literal["min", "max"] = "max",
        name: str | None = None,
    ) -> "StreamHandle":
        """Interval join (optimization O1)."""
        left_key, right_key = keys if keys else (None, None)
        operator = IntervalJoin(
            bounds,
            theta=theta,
            left_key=left_key,
            right_key=right_key,
            emit_ts=emit_ts,
            name=name,
        )
        node = self._env.flow.add_operator(operator)
        self._env.flow.connect(self._node_id, node, port=0)
        self._env.flow.connect(other._node_id, node, port=1)
        return StreamHandle(self._env, node)

    # -- aggregations -----------------------------------------------------------

    def window_aggregate(
        self,
        window: WindowSpec,
        function: str = "count",
        attribute: str = "value",
        key_fn: KeySelector | None = None,
        output_type: str = "AGG",
        name: str | None = None,
    ) -> "StreamHandle":
        return self._attach(
            WindowAggregate(
                window,
                function=function,
                attribute=attribute,
                key_fn=key_fn,
                output_type=output_type,
                name=name,
            )
        )

    def window_udf(
        self,
        window: WindowSpec,
        udf: Callable[[Sequence[tuple[int, float]]], Iterable[float]],
        key_fn: KeySelector | None = None,
        output_type: str = "AGG",
        name: str | None = None,
    ) -> "StreamHandle":
        return self._attach(
            SortedWindowUdfAggregate(
                window, udf, key_fn=key_fn, output_type=output_type, name=name
            )
        )

    def kleene_iterate(
        self,
        window: WindowSpec,
        minimum: int,
        unbounded: bool = False,
        condition: Callable[[Event, Event], bool] | None = None,
        key_fn: KeySelector | None = None,
        emit_ts: Literal["min", "max"] = "min",
        name: str | None = None,
    ) -> "StreamHandle":
        """Exact ITER^m / unbounded Kleene+."""
        return self._attach(
            KleeneIterOperator(
                window,
                minimum=minimum,
                unbounded=unbounded,
                condition=condition,
                key_fn=key_fn,
                emit_ts=emit_ts,
                name=name,
            )
        )

    def next_occurrence(
        self,
        positive_type: str,
        negated_type: str,
        window_size: int,
        keyed: bool = False,
    ) -> "StreamHandle":
        """The NSEQ mapping's UDF stage (paper Section 4.1)."""
        return self._attach(
            NextOccurrenceUdf(positive_type, negated_type, window_size, keyed=keyed)
        )

    # -- termination ------------------------------------------------------------

    def sink(self, sink: Sink | None = None) -> Sink:
        sink = sink or CollectSink()
        node = self._env.flow.add_operator(sink)
        self._env.flow.connect(self._node_id, node, port=0)
        return sink


class StreamEnvironment:
    """Factory and execution entry point for stream jobs."""

    def __init__(self, name: str = "job"):
        self.flow = Dataflow(name=name)

    def add_source(self, source: Source) -> StreamHandle:
        return StreamHandle(self, self.flow.add_source(source))

    def from_events(self, events: Sequence[Event], name: str = "events",
                    event_type: str | None = None) -> StreamHandle:
        return self.add_source(ListSource(events, name=name, event_type=event_type))

    def execute(
        self,
        memory_budget_bytes: int | None = None,
        watermark_interval: int = MS_PER_MINUTE,
        sample_every: int = 1_000,
        max_out_of_orderness: int = 0,
        backend: "str | ExecutionBackend | None" = None,
        checkpoint_interval: int | None = None,
        checkpoint_store=None,
        fault_plan=None,
        max_restarts: int = 3,
        batch_size: int = 1,
    ) -> RunResult:
        resolved = resolve_backend(backend)
        settings = ExecutionSettings(
            memory_budget_bytes=memory_budget_bytes,
            watermark_interval=watermark_interval,
            sample_every=sample_every,
            max_out_of_orderness=max_out_of_orderness,
            checkpoint_interval=checkpoint_interval,
            checkpoint_store=checkpoint_store,
            fault_plan=fault_plan,
            max_restarts=max_restarts,
            batch_size=batch_size,
        )
        return resolved.execute(self.flow, settings)

    def explain(self) -> str:
        return self.flow.describe()

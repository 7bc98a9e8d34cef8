"""Tests for the dataflow graph and the push-based executor."""

import pytest

from repro.asp.datamodel import Event
from repro.asp.runtime import ExecutionSettings, merge_sources, run_dataflow
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.graph import Dataflow, linear_pipeline
from repro.asp.operators.filter import FilterOperator
from repro.asp.operators.join import SlidingWindowJoin
from repro.asp.operators.map import MapOperator
from repro.asp.operators.sink import CollectSink, DiscardSink
from repro.asp.operators.source import ListSource
from repro.asp.operators.union import UnionOperator
from repro.asp.operators.window import WindowSpec
from repro.errors import GraphError

MIN = 60_000


def minute_events(event_type, count, id=1):
    return [Event(event_type, ts=i * MIN, id=id, value=i) for i in range(count)]


class TestDataflowStructure:
    def test_linear_pipeline(self):
        sink = CollectSink()
        flow = linear_pipeline(
            ListSource(minute_events("Q", 3)),
            [FilterOperator(lambda e: True), sink],
        )
        flow.validate()
        assert len(flow.nodes) == 3
        assert flow.sink_nodes()[0].operator is sink

    def test_missing_source_rejected(self):
        flow = Dataflow()
        node = flow.add_operator(CollectSink())
        with pytest.raises(GraphError, match="no sources"):
            flow.validate()

    def test_missing_sink_rejected(self):
        flow = Dataflow()
        flow.add_source(ListSource([]))
        with pytest.raises(GraphError, match="no sinks"):
            flow.validate()

    def test_unconnected_operator_rejected(self):
        flow = Dataflow()
        flow.add_source(ListSource([]))
        flow.add_operator(CollectSink())
        with pytest.raises(GraphError, match="no inputs"):
            flow.validate()

    def test_join_requires_both_ports(self):
        flow = Dataflow()
        src = flow.add_source(ListSource([]))
        join = flow.add_operator(SlidingWindowJoin(WindowSpec(MIN, MIN)))
        sink = flow.add_operator(CollectSink())
        flow.connect(src, join, port=0)
        flow.connect(join, sink)
        with pytest.raises(GraphError, match="missing inputs"):
            flow.validate()

    def test_invalid_port_rejected(self):
        flow = Dataflow()
        src = flow.add_source(ListSource([]))
        f = flow.add_operator(FilterOperator(lambda e: True))
        sink = flow.add_operator(CollectSink())
        flow.connect(src, f, port=1)  # filter is unary: port 1 invalid
        flow.connect(f, sink)
        with pytest.raises(GraphError, match="invalid ports|missing inputs"):
            flow.validate()

    def test_connecting_into_source_rejected(self):
        flow = Dataflow()
        a = flow.add_source(ListSource([]))
        b = flow.add_source(ListSource([]))
        with pytest.raises(GraphError, match="cannot connect into a source"):
            flow.connect(a, b)

    def test_unknown_node_rejected(self):
        flow = Dataflow()
        a = flow.add_source(ListSource([]))
        with pytest.raises(GraphError, match="unknown target"):
            flow.connect(a, 99)

    def test_topological_order_respects_edges(self):
        flow = Dataflow()
        src = flow.add_source(ListSource([]))
        f1 = flow.add_operator(FilterOperator(lambda e: True, name="f1"))
        f2 = flow.add_operator(FilterOperator(lambda e: True, name="f2"))
        sink = flow.add_operator(CollectSink())
        flow.connect(src, f1)
        flow.connect(f1, f2)
        flow.connect(f2, sink)
        order = [n.node_id for n in flow.topological_order()]
        assert order.index(src) < order.index(f1) < order.index(f2) < order.index(sink)

    def test_describe_renders_plan(self):
        flow = linear_pipeline(
            ListSource([], name="s"), [FilterOperator(lambda e: True), CollectSink()]
        )
        text = flow.describe()
        assert "source s" in text
        assert "filter" in text

    def test_chain_lengths(self):
        flow = linear_pipeline(
            ListSource([], name="s"),
            [FilterOperator(lambda e: True), MapOperator(lambda e: e), CollectSink()],
        )
        depths = flow.operator_chain_lengths()
        assert list(depths.values()) == [3]


class TestMergeSources:
    def test_global_event_time_order(self):
        flow = Dataflow()
        flow.add_source(ListSource(minute_events("Q", 3)))
        flow.add_source(ListSource([Event("V", ts=90_000)]))
        merged = [e.ts for _nid, e in merge_sources(flow.source_nodes())]
        assert merged == sorted(merged)

    def test_empty_sources(self):
        flow = Dataflow()
        flow.add_source(ListSource([]))
        assert list(merge_sources(flow.source_nodes())) == []


class TestExecutor:
    def test_simple_pipeline_counts(self):
        sink = CollectSink()
        flow = linear_pipeline(
            ListSource(minute_events("Q", 10)),
            [FilterOperator(lambda e: e.value >= 5), sink],
        )
        result = run_dataflow(flow)
        assert result.events_in == 10
        assert sink.count == 5
        assert not result.failed

    def test_union_of_two_sources(self):
        flow = Dataflow()
        a = flow.add_source(ListSource(minute_events("Q", 5)))
        b = flow.add_source(ListSource(minute_events("V", 5)))
        union = flow.add_operator(UnionOperator(arity=2))
        sink = CollectSink()
        sink_node = flow.add_operator(sink)
        flow.connect(a, union, port=0)
        flow.connect(b, union, port=1)
        flow.connect(union, sink_node)
        run_dataflow(flow)
        assert sink.count == 10

    def test_join_pipeline_end_to_end(self):
        flow = Dataflow()
        a = flow.add_source(ListSource(minute_events("Q", 10)))
        b = flow.add_source(ListSource([Event("V", ts=i * MIN + 1000) for i in range(10)]))
        join = flow.add_operator(
            SlidingWindowJoin(WindowSpec(3 * MIN, MIN), theta=lambda l, r: l.ts < r.ts)
        )
        sink = CollectSink()
        sink_node = flow.add_operator(sink)
        flow.connect(a, join, port=0)
        flow.connect(b, join, port=1)
        flow.connect(join, sink_node)
        result = run_dataflow(flow, watermark_interval=MIN)
        assert sink.count > 0
        assert result.items_out == 0  # sink consumed everything

    def test_memory_budget_failure_reported_not_raised(self):
        flow = Dataflow()
        a = flow.add_source(ListSource(minute_events("Q", 200)))
        b = flow.add_source(ListSource(minute_events("V", 200)))
        join = flow.add_operator(SlidingWindowJoin(WindowSpec(100 * MIN, MIN)))
        sink_node = flow.add_operator(DiscardSink())
        flow.connect(a, join, port=0)
        flow.connect(b, join, port=1)
        flow.connect(join, sink_node)
        result = run_dataflow(flow, memory_budget_bytes=1_000, watermark_interval=MIN)
        assert result.failed
        assert "memory budget exhausted" in (result.failure or "")

    def test_samples_collected(self):
        flow = linear_pipeline(
            ListSource(minute_events("Q", 100)), [CollectSink()]
        )
        result = SerialJob(flow, ExecutionSettings(sample_every=10)).run()
        assert len(result.samples) >= 10
        assert all("state_bytes" in s for s in result.samples)

    def test_stage_seconds_recorded_per_operator(self):
        flow = linear_pipeline(
            ListSource(minute_events("Q", 50)),
            [FilterOperator(lambda e: True, name="f"), CollectSink()],
        )
        result = run_dataflow(flow)
        assert len(result.stage_seconds) == 2
        assert all(v >= 0 for v in result.stage_seconds.values())

    def test_pipeline_seconds_bounded_by_wall(self):
        flow = linear_pipeline(
            ListSource(minute_events("Q", 50)), [CollectSink()]
        )
        result = run_dataflow(flow)
        assert 0 < result.pipeline_seconds <= result.wall_seconds + 1e-6
        assert result.throughput_tps >= result.serial_throughput_tps

    def test_watermark_delay_accumulates_along_paths(self):
        flow = Dataflow()
        a = flow.add_source(ListSource(minute_events("Q", 5)))
        b = flow.add_source(ListSource(minute_events("V", 5)))
        j1 = flow.add_operator(SlidingWindowJoin(WindowSpec(2 * MIN, MIN), name="j1"))
        c = flow.add_source(ListSource(minute_events("W", 5)))
        j2 = flow.add_operator(SlidingWindowJoin(WindowSpec(3 * MIN, MIN), name="j2"))
        sink_node = flow.add_operator(DiscardSink())
        flow.connect(a, j1, port=0)
        flow.connect(b, j1, port=1)
        flow.connect(j1, j2, port=0)
        flow.connect(c, j2, port=1)
        flow.connect(j2, sink_node)
        delays = SerialJob(flow, ExecutionSettings()).watermarks.delays
        j1_id = next(n.node_id for n in flow.operator_nodes() if n.name == "j1")
        j2_id = next(n.node_id for n in flow.operator_nodes() if n.name == "j2")
        sink_id = flow.sink_nodes()[0].node_id
        assert delays[j1_id] == 0
        assert delays[j2_id] == 2 * MIN       # j1's delay
        assert delays[sink_id] == 5 * MIN     # j1 + j2

    def test_delayed_items_are_not_lost_in_nested_joins(self):
        """A downstream window must not close before upstream join results
        (up to W late) arrive — the watermark-delay mechanism."""
        q = [Event("Q", ts=i * MIN) for i in range(30)]
        v = [Event("V", ts=i * MIN) for i in range(30)]
        w = [Event("W", ts=i * MIN) for i in range(30)]
        flow = Dataflow()
        a, b, c = (flow.add_source(ListSource(s)) for s in (q, v, w))
        W = 6 * MIN
        j1 = SlidingWindowJoin(WindowSpec(W, MIN), theta=lambda l, r: l.ts < r.ts,
                               emit_ts="min")
        j2 = SlidingWindowJoin(WindowSpec(W, MIN),
                               theta=lambda l, r: max(e.ts for e in l.events) < r.ts
                               if hasattr(l, "events") else l.ts < r.ts,
                               emit_ts="min")
        n1, n2 = flow.add_operator(j1), flow.add_operator(j2)
        sink = CollectSink()
        ns = flow.add_operator(sink)
        flow.connect(a, n1, port=0)
        flow.connect(b, n1, port=1)
        flow.connect(n1, n2, port=0)
        flow.connect(c, n2, port=1)
        flow.connect(n2, ns)
        run_dataflow(flow, watermark_interval=MIN)
        # brute force triples q < v < w all within a shared 6-minute grid window
        def cowin(ts_list):
            newest, oldest = max(ts_list), min(ts_list)
            first_k = -(-(newest - W + 1) // MIN)
            return first_k * MIN <= oldest
        expected = sum(
            1
            for eq in q for ev in v for ew in w
            if eq.ts < ev.ts < ew.ts and cowin([eq.ts, ev.ts, ew.ts])
        )
        assert sink.count == expected

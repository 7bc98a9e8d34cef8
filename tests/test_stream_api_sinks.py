"""Tests for the fluent DataStream API, sources and sinks."""

import pytest

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.sink import (
    CallbackSink,
    CollectSink,
    DiscardSink,
    LatencySink,
)
from repro.asp.operators.source import (
    CsvSource,
    GeneratorSource,
    ListSource,
    ThrottledSource,
)
from repro.asp.operators.window import IntervalBounds
from repro.asp.stream import StreamEnvironment
from repro.asp.time import minutes
from repro.workloads.csvio import write_events

MIN = minutes(1)


def minute_events(event_type, count, **kw):
    return [Event(event_type, ts=i * MIN, value=float(i), **kw) for i in range(count)]


class TestSources:
    def test_list_source(self):
        src = ListSource(minute_events("Q", 3))
        assert len(src) == 3
        assert len(list(src)) == 3
        assert src.emitted == 3

    def test_generator_source_reiterable(self):
        src = GeneratorSource(lambda: iter(minute_events("Q", 2)))
        assert len(list(src)) == 2
        assert len(list(src)) == 2  # factory makes it re-iterable

    def test_csv_source(self, tmp_path):
        events = minute_events("Q", 4)
        write_events(tmp_path / "q.csv", events)
        src = CsvSource(tmp_path / "q.csv")
        assert list(src) == events

    def test_throttled_source_wraps(self):
        inner = ListSource(minute_events("Q", 2))
        src = ThrottledSource(inner, rate_tps=100.0)
        assert len(list(src)) == 2
        assert src.rate_tps == 100.0

    def test_throttled_source_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ThrottledSource(ListSource([]), rate_tps=0)


class TestSinks:
    def test_collect_sink(self):
        sink = CollectSink()
        sink.process_batch([Event("Q", ts=1)])
        assert sink.count == 1
        assert len(sink.items) == 1

    def test_collect_sink_matches_filter(self):
        sink = CollectSink()
        sink.process_batch([Event("Q", ts=1)])
        sink.process_batch([ComplexEvent((Event("Q", ts=1), Event("V", ts=2)))])
        assert len(sink.matches()) == 1
        assert len(sink.unique_matches()) == 1

    def test_discard_sink_counts_only(self):
        sink = DiscardSink()
        sink.process_batch([Event("Q", ts=1)])
        assert sink.count == 1
        assert not hasattr(sink, "items")

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.process_batch([Event("Q", ts=1)])
        assert len(seen) == 1

    def test_latency_sink_records_nonnegative(self):
        import time

        sink = LatencySink()
        created = time.perf_counter()
        event = Event("Q", ts=1, attrs={"created_wall": created})
        sink.process_batch([ComplexEvent((event,))])
        assert len(sink.latencies_s) == 1
        assert sink.latencies_s[0] >= 0
        assert sink.mean_latency_s() >= 0
        assert sink.percentile_latency_s(99) >= 0

    def test_latency_sink_empty(self):
        sink = LatencySink()
        assert sink.mean_latency_s() == 0.0
        assert sink.percentile_latency_s(50) == 0.0


class TestStreamApi:
    def test_filter_map_chain(self):
        env = StreamEnvironment("t")
        sink = (
            env.from_events(minute_events("Q", 10))
            .filter(lambda e: e.value >= 5)
            .map(lambda e: e.with_attrs(value=e.value * 10))
            .sink(CollectSink())
        )
        env.execute()
        assert sink.count == 5
        assert all(item.value >= 50 for item in sink.items)

    def test_filter_type(self):
        env = StreamEnvironment("t")
        mixed = minute_events("Q", 3) + [Event("V", ts=10 * MIN)]
        sink = env.from_events(sorted(mixed, key=lambda e: e.ts)).filter_type("V").sink()
        env.execute()
        assert sink.count == 1

    def test_union(self):
        env = StreamEnvironment("t")
        a = env.from_events(minute_events("Q", 3), name="a")
        b = env.from_events(minute_events("V", 4), name="b")
        sink = a.union(b).sink(CollectSink())
        env.execute()
        assert sink.count == 7

    def test_window_join(self):
        env = StreamEnvironment("t")
        a = env.from_events(minute_events("Q", 5), name="a")
        b = env.from_events([Event("V", ts=i * MIN + 1) for i in range(5)], name="b")
        from repro.asp.operators.window import WindowSpec

        sink = a.window_join(
            b, window=WindowSpec(2 * MIN, MIN), theta=lambda l, r: l.ts < r.ts
        ).sink(CollectSink())
        env.execute()
        assert sink.count > 0
        assert all(isinstance(i, ComplexEvent) for i in sink.items)

    def test_interval_join(self):
        env = StreamEnvironment("t")
        a = env.from_events(minute_events("Q", 5), name="a")
        b = env.from_events([Event("V", ts=i * MIN + 1) for i in range(5)], name="b")
        sink = a.interval_join(b, bounds=IntervalBounds.sequence(2 * MIN)).sink()
        env.execute()
        assert sink.count > 0

    def test_window_aggregate(self):
        env = StreamEnvironment("t")
        from repro.asp.operators.window import WindowSpec

        sink = (
            env.from_events(minute_events("V", 10))
            .window_aggregate(WindowSpec(5 * MIN, 5 * MIN), "count")
            .sink(CollectSink())
        )
        env.execute()
        assert sink.count == 2
        assert all(i.value == 5.0 for i in sink.items)

    def test_next_occurrence_stage(self):
        env = StreamEnvironment("t")
        merged = sorted(
            minute_events("Q", 3) + [Event("W", ts=MIN + 1)], key=lambda e: e.ts
        )
        sink = (
            env.from_events(merged)
            .next_occurrence("Q", "W", window_size=5 * MIN)
            .sink(CollectSink())
        )
        env.execute()
        assert sink.count == 3  # every Q resolved (by blocker or timeout)

    def test_explain_renders(self):
        env = StreamEnvironment("t")
        env.from_events(minute_events("Q", 1)).filter(lambda e: True).sink()
        assert "filter" in env.explain()

    def test_key_by_records(self):
        env = StreamEnvironment("t")
        events = [Event("Q", ts=i * MIN, id=i % 3) for i in range(9)]
        handle = env.from_events(events).key_by(lambda e: e.id)
        handle.sink()
        env.execute()
        # reach into the graph: the key-by saw 3 distinct keys
        keyby_ops = [
            n.operator
            for n in env.flow.operator_nodes()
            if n.operator.kind == "key-by"
        ]
        assert keyby_ops[0].seen_keys == {0, 1, 2}

"""The layered runtime: channels, scheduler, instrumentation, backends.

The central guarantee: the sharded backend (O3 key partitioning made
physical) produces exactly the serial backend's deduplicated match set,
which in turn equals the formal-semantics oracle. Plus unit coverage for
the runtime layers the old monolithic executor used to interleave.
"""

import random

import pytest

from repro.asp.datamodel import Event
from repro.asp.graph import Dataflow, clone_dataflow, extract_shards, linear_pipeline
from repro.asp.operators.filter import FilterOperator
from repro.asp.operators.keyby import key_by_attribute, partition_for
from repro.asp.operators.sink import CollectSink, DiscardSink
from repro.asp.operators.source import ListSource, LogSource
from repro.asp.runtime import (
    ExecutionSettings,
    Instrumentation,
    SerialBackend,
    ShardedBackend,
    merge_sources,
    resolve_backend,
    run_dataflow,
)
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.state import StateRegistry
from repro.asp.time import WatermarkGenerator, minutes
from repro.cep.matches import dedup
from repro.errors import ExecutionError, GraphError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern
from repro.sea.semantics import evaluate_pattern

MIN = minutes(1)

IDS = (1, 2, 3, 4, 5)


def keyed_stream(seed, n=60, types=("Q", "V", "W"), ids=IDS):
    rng = random.Random(seed)
    return [
        Event(
            rng.choice(types),
            ts=i * MIN,
            id=rng.choice(ids),
            value=round(rng.uniform(0, 100), 3),
        )
        for i in range(n)
    ]


def sources_for(events):
    by_type = {}
    for e in events:
        by_type.setdefault(e.event_type, []).append(e)
    return {
        t: ListSource(lst, name=f"src[{t}]", event_type=t)
        for t, lst in by_type.items()
    }


def match_set(pattern, events, backend=None):
    query = translate(pattern, sources_for(events), TranslationOptions.o3())
    query.execute(backend=backend)
    return {m.dedup_key() for m in dedup(query.matches())}


KEYED_PATTERNS = [
    "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 7 MINUTES SLIDE 1 MINUTE",
    "PATTERN SEQ(Q a, V b, W c) WHERE a.id = b.id AND b.id = c.id "
    "WITHIN 6 MINUTES SLIDE 1 MINUTE",
    "PATTERN ITER2(V v) WHERE v[1].id = v[2].id WITHIN 5 MINUTES SLIDE 1 MINUTE",
]

NSEQ_KEYED = (
    "PATTERN SEQ(Q a, !W x, V b) WHERE a.id = b.id WITHIN 6 MINUTES SLIDE 1 MINUTE"
)


class TestShardedEquivalence:
    """Satellite guarantee: sharded == serial == oracle, per pattern."""

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("text", KEYED_PATTERNS)
    def test_sharded_equals_serial_and_oracle(self, text, shards):
        pattern = parse_pattern(text)
        for seed in (11, 12):
            events = keyed_stream(seed)
            serial = match_set(pattern, events)
            sharded = match_set(
                pattern,
                events,
                backend=ShardedBackend(shards=shards),
            )
            oracle = {m.dedup_key() for m in evaluate_pattern(pattern, events)}
            assert sharded == serial, f"seed={seed}"
            assert sharded == oracle, f"seed={seed}"

    @pytest.mark.parametrize("shards", (2, 4))
    def test_keyed_nseq_sharded_equals_serial(self, shards):
        """NSEQ's negation is key-scoped under O3; the oracle is the
        unkeyed pattern evaluated per key substream."""
        pattern = parse_pattern(NSEQ_KEYED)
        events = keyed_stream(17, n=80)
        serial = match_set(pattern, events)
        sharded = match_set(
            pattern, events, backend=ShardedBackend(shards=shards)
        )
        per_key = parse_pattern(
            "PATTERN SEQ(Q a, !W x, V b) WITHIN 6 MINUTES SLIDE 1 MINUTE"
        )
        oracle = set()
        for key in IDS:
            sub = [e for e in events if e.id == key]
            oracle |= {m.dedup_key() for m in evaluate_pattern(per_key, sub)}
        assert sharded == serial
        assert sharded == oracle

    def test_one_query_executed_twice_on_one_backend(self):
        """Each ``execute`` splits afresh: the second run matches the first."""
        pattern = parse_pattern(KEYED_PATTERNS[0])
        events = keyed_stream(3, n=40)
        query = translate(pattern, sources_for(events), TranslationOptions.o3())
        backend = ShardedBackend(shards=2)
        runs = []
        for _ in range(2):
            result = query.execute(backend=backend)
            runs.append((result.events_in, sorted(repr(m.dedup_key()) for m in query.matches())))
        assert runs[0] == runs[1]
        assert set(runs[0][1]) == {repr(key) for key in match_set(pattern, events)}

    def test_sharded_result_metadata(self):
        pattern = parse_pattern(KEYED_PATTERNS[0])
        events = keyed_stream(5, n=50)
        query = translate(pattern, sources_for(events), TranslationOptions.o3())
        result = query.execute(backend=ShardedBackend(shards=4))
        meta = result.metadata
        assert meta["backend"] == "sharded"
        assert meta["shards"] == 4
        assert "mode" not in meta
        assert len(meta["shard_pipeline_seconds"]) == 4
        # The merged pipeline time is the measured makespan: the slowest
        # shard bounds the parallel job.
        assert result.pipeline_seconds == pytest.approx(
            max(meta["shard_pipeline_seconds"])
        )
        assert sum(meta["shard_events_in"]) == result.events_in
        assert sum(meta["shard_work_units"]) == result.work_units


class TestShardedRejection:
    def test_unkeyed_plan_is_refused(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 7 MINUTES SLIDE 1 MINUTE"
        )
        events = keyed_stream(1, n=30)
        query = translate(pattern, sources_for(events), TranslationOptions.fasp())
        with pytest.raises(ExecutionError, match="O3|key-parallel"):
            query.execute(backend=ShardedBackend(shards=2))

    def test_error_names_the_unsafe_operators(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 7 MINUTES SLIDE 1 MINUTE"
        )
        events = keyed_stream(1, n=30)
        query = translate(pattern, sources_for(events), TranslationOptions.fasp())
        with pytest.raises(ExecutionError, match="join"):
            ShardedBackend(shards=2).check_shardable(query.env.flow)

    def test_backend_constructor_validation(self):
        with pytest.raises(ExecutionError):
            ShardedBackend(shards=0)


class TestResolveBackend:
    def test_default_and_names(self):
        assert resolve_backend(None).name == "serial"
        assert resolve_backend("serial").name == "serial"
        sharded = resolve_backend("sharded", shards=8, key_attribute="sensor")
        assert sharded.name == "sharded"
        assert sharded.shards == 8
        assert sharded.key_attribute == "sensor"

    def test_instance_passthrough_and_unknown(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend
        with pytest.raises(ExecutionError, match="unknown"):
            resolve_backend("distributed")


class TestMergeSourcesEdges:
    """Satellite: source-merge edge cases."""

    @staticmethod
    def _flow_of(*event_lists):
        flow = Dataflow(name="merge-test")
        for i, events in enumerate(event_lists):
            flow.add_source(ListSource(events, name=f"s{i}"))
        return flow

    def test_empty_source_contributes_nothing(self):
        left = [Event("Q", ts=i * MIN, id=1) for i in range(3)]
        flow = self._flow_of(left, [])
        merged = list(merge_sources(flow.source_nodes()))
        assert [e.ts for _n, e in merged] == [0, MIN, 2 * MIN]
        assert all(node_id == 0 for node_id, _e in merged)

    def test_all_sources_empty(self):
        flow = self._flow_of([], [])
        assert list(merge_sources(flow.source_nodes())) == []

    def test_single_source_preserves_order(self):
        events = [Event("Q", ts=ts, id=1) for ts in (0, MIN, MIN, 2 * MIN)]
        flow = self._flow_of(events)
        assert [e for _n, e in merge_sources(flow.source_nodes())] == events

    def test_duplicate_timestamps_keep_source_order(self):
        """Ties break by source registration order, deterministically."""
        a = [Event("A", ts=MIN, id=1), Event("A", ts=2 * MIN, id=1)]
        b = [Event("B", ts=MIN, id=2), Event("B", ts=2 * MIN, id=2)]
        flow = self._flow_of(a, b)
        types = [e.event_type for _n, e in merge_sources(flow.source_nodes())]
        assert types == ["A", "B", "A", "B"]


class TestInstrumentation:
    """Satellite: one budget check even when cadences coincide."""

    @staticmethod
    def _instrumentation(sample_every=1000):
        flow = linear_pipeline(
            ListSource([], name="s"), [FilterOperator(lambda e: True)]
        )
        return Instrumentation(flow, StateRegistry(), sample_every=sample_every)

    def test_coinciding_cadences_check_once(self):
        instr = self._instrumentation(sample_every=1000)
        instr.after_event(1000, watermark_emitted=True)
        assert instr.budget_checks == 1
        assert len(instr.samples) == 1

    def test_watermark_only_checks_without_sampling(self):
        instr = self._instrumentation(sample_every=1000)
        instr.after_event(7, watermark_emitted=True)
        assert instr.budget_checks == 1
        assert instr.samples == []

    def test_quiet_event_checks_nothing(self):
        instr = self._instrumentation(sample_every=1000)
        instr.after_event(7, watermark_emitted=False)
        assert instr.budget_checks == 0
        assert instr.samples == []


class TestChannelsAndClock:
    def test_channels_count_items_and_watermarks(self):
        events = [Event("Q", ts=i * MIN, id=1) for i in range(20)]
        flow = linear_pipeline(
            ListSource(events, name="s"),
            [FilterOperator(lambda e: True), DiscardSink()],
        )
        job = SerialJob(flow, ExecutionSettings(watermark_interval=MIN))
        result = job.run()
        totals = result.metadata["channels"]
        assert result.metadata["backend"] == "serial"
        assert totals["item_frames"] == 40  # 20 into the filter, 20 onward
        assert totals["watermark_frames"] > 0
        source_channel = job.channels[0][0]
        assert source_channel.items == 20
        assert source_channel.peak_burst >= 1

    def test_watermark_clock_is_public(self):
        """The executor wires operators' event clock through the public
        ``current_max_ts`` property, not the private ``_max_ts``."""
        generator = WatermarkGenerator(emit_interval=MIN)
        generator.observe(5 * MIN)
        assert generator.current_max_ts == 5 * MIN
        events = [Event("Q", ts=i * MIN, id=1) for i in range(4)]
        flow = linear_pipeline(ListSource(events, name="s"), [DiscardSink()])
        job = SerialJob(flow, ExecutionSettings(watermark_interval=MIN))
        job.run()
        assert job.watermarks.current_max_ts() == 3 * MIN


class TestExtractShards:
    @staticmethod
    def _keyed_flow():
        events = keyed_stream(9, n=40)
        flow = linear_pipeline(
            ListSource(events, name="s"),
            [FilterOperator(lambda e: True), CollectSink()],
        )
        return flow, events

    def test_partitions_are_disjoint_and_complete(self):
        flow, events = self._keyed_flow()
        shards = extract_shards(flow, 4, key_by_attribute("id"))
        assert len(shards) == 4
        seen = []
        for sub in shards:
            seen.extend(iter(sub.source_nodes()[0].source))
        assert sorted(seen, key=lambda e: e.ts) == events
        # Same key -> same shard (determinism across calls).
        again = extract_shards(flow, 4, key_by_attribute("id"))
        for sub, sub2 in zip(shards, again):
            assert list(iter(sub.source_nodes()[0].source)) == list(
                iter(sub2.source_nodes()[0].source)
            )

    def test_every_event_is_on_its_keys_partition(self):
        flow, events = self._keyed_flow()
        shards = extract_shards(flow, 3, key_by_attribute("id"))
        for index, sub in enumerate(shards):
            for event in sub.source_nodes()[0].source:
                assert partition_for(event.id, 3) == index
        assert sum(len(list(sub.source_nodes()[0].source)) for sub in shards) == len(
            events
        )

    def test_a_constant_key_fills_one_shard(self):
        flow, events = self._keyed_flow()
        shards = extract_shards(flow, 4, lambda _event: "fixed")
        sizes = [len(list(sub.source_nodes()[0].source)) for sub in shards]
        assert sorted(sizes) == [0, 0, 0, len(events)]

    def test_a_grown_split_routes_only_the_new_events(self):
        events = keyed_stream(9, n=40)
        log = events[:15]
        flow = linear_pipeline(
            LogSource(log, name="s"), [FilterOperator(lambda e: True), CollectSink()]
        )
        shards = extract_shards(flow, 3, key_by_attribute("id"))
        shard_logs = [sub.source_nodes()[0].source.materialized() for sub in shards]
        log.extend(events[15:])
        assert extract_shards(flow, 3, key_by_attribute("id"), shards) is shards
        once = extract_shards(flow, 3, key_by_attribute("id"))
        # The same lists, grown at their end, holding what one split holds.
        grown = [sub.source_nodes()[0].source.materialized() for sub in shards]
        assert all(new is old for new, old in zip(grown, shard_logs))
        assert shard_logs == [sub.source_nodes()[0].source.materialized() for sub in once]
        assert sum(map(len, shard_logs)) == len(events)

    def test_zero_shards_rejected(self):
        flow, _events = self._keyed_flow()
        with pytest.raises(GraphError):
            extract_shards(flow, 0, key_by_attribute("id"))

    def test_shards_get_fresh_operators(self):
        flow, _events = self._keyed_flow()
        shards = extract_shards(flow, 2, key_by_attribute("id"))
        originals = {id(n.operator) for n in flow.operator_nodes()}
        for sub in shards:
            for node in sub.operator_nodes():
                assert id(node.operator) not in originals

    def test_clone_shares_sources_by_default(self):
        flow, _events = self._keyed_flow()
        cloned = clone_dataflow(flow)
        assert cloned.source_nodes()[0].payload is flow.source_nodes()[0].payload
        assert (
            clone_dataflow(flow, share_sources=False).source_nodes()[0].payload
            is not flow.source_nodes()[0].payload
        )


class TestRunDataflowBackend:
    def test_run_dataflow_sharded_counts_everything_once(self):
        events = keyed_stream(21, n=48)
        flow = linear_pipeline(
            ListSource(events, name="s"),
            [FilterOperator(lambda e: e.value > 50.0), CollectSink()],
        )
        serial_flow = clone_dataflow(flow)
        sharded = run_dataflow(flow, backend="sharded", shards=4)
        serial = run_dataflow(serial_flow)
        assert sharded.events_in == serial.events_in == len(events)
        kept = {
            (e.ts, e.id)
            for e in flow.sink_nodes()[0].operator.items
        }
        kept_serial = {
            (e.ts, e.id)
            for e in serial_flow.sink_nodes()[0].operator.items
        }
        assert kept == kept_serial

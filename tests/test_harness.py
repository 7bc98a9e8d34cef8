"""Tests for the FCEP/FASP measurement harness and its metrics."""

import pytest

from repro.asp.runtime import RunResult, ShardedBackend, merge_shard_results
from repro.asp.time import minutes
from repro.mapping.optimizations import TranslationOptions
from repro.runtime.harness import run_fasp, run_fcep
from repro.runtime.metrics import (
    ThroughputMeasurement,
    cpu_proxy_series,
    format_bytes,
    format_tps,
    resource_series,
    speedup,
)
from repro.sea.parser import parse_pattern
from repro.workloads.qnv import QnVConfig, qnv_streams

MIN = minutes(1)


@pytest.fixture(scope="module")
def keyed_streams():
    return qnv_streams(QnVConfig(num_segments=8, duration_ms=minutes(300), seed=3))


@pytest.fixture(scope="module")
def keyed_pattern():
    return parse_pattern(
        "PATTERN SEQ(Q a, V b) WHERE a.value > 50 AND a.id = b.id "
        "WITHIN 10 MINUTES SLIDE 1 MINUTE",
        name="SEQk",
    )


class TestHarness:
    def test_fcep_and_fasp_agree_on_matches(self, keyed_pattern, keyed_streams):
        m_fcep, sink_fcep, _res = run_fcep(keyed_pattern, keyed_streams)
        m_fasp, sink_fasp, _res = run_fasp(keyed_pattern, keyed_streams)
        assert sink_fcep.count == sink_fasp.count
        assert m_fcep.matches == m_fasp.matches
        assert m_fcep.label == "FCEP"
        assert m_fasp.label == "FASP"

    def test_all_option_sets_agree(self, keyed_pattern, keyed_streams):
        counts = set()
        for options in (
            TranslationOptions.fasp(),
            TranslationOptions.o1(),
            TranslationOptions.o3(),
            TranslationOptions.o1_o3(),
        ):
            _m, sink, _res = run_fasp(keyed_pattern, keyed_streams, options)
            counts.add(sink.count)
        assert len(counts) == 1

    def test_sharded_runs_agree_with_single_node(self, keyed_pattern, keyed_streams):
        _m0, sink0, _res = run_fcep(keyed_pattern, keyed_streams, key_attribute="id")
        backend = ShardedBackend(shards=4)
        m_fcep, _sink, res_fcep = run_fcep(
            keyed_pattern, keyed_streams, key_attribute="id", backend=backend
        )
        m_fasp, _sink, res_fasp = run_fasp(
            keyed_pattern, keyed_streams, TranslationOptions.o3(), backend=backend
        )
        assert m_fcep.matches == sink0.count
        assert m_fasp.matches == sink0.count
        for result in (res_fcep, res_fasp):
            assert result.metadata["shards"] == 4
            assert sum(result.metadata["shard_events_in"]) == result.events_in

    def test_measurement_fields(self, keyed_pattern, keyed_streams):
        measurement, _sink, result = run_fasp(keyed_pattern, keyed_streams)
        assert measurement.events_in == result.events_in
        assert measurement.throughput_tps > 0
        assert measurement.wall_seconds > 0
        assert not measurement.failed

    def test_collect_mode_returns_matches(self, keyed_pattern, keyed_streams):
        _m, sink, _res = run_fasp(keyed_pattern, keyed_streams, collect=True)
        assert hasattr(sink, "items")
        assert len(sink.matches()) == sink.count


class TestShardedScaleOut:
    """The harness on the sharded backend, the way Figures 4 and 6 run it."""

    @pytest.mark.parametrize("shards", [1, 3, 16])
    @pytest.mark.parametrize("approach", ["FCEP", "FASP-O3"])
    def test_match_counts_do_not_depend_on_the_shard_count(
        self, keyed_pattern, keyed_streams, approach, shards
    ):
        _m0, single, _res = run_fcep(keyed_pattern, keyed_streams, key_attribute="id")
        backend = ShardedBackend(shards=shards)
        if approach == "FCEP":
            m, _sink, result = run_fcep(
                keyed_pattern, keyed_streams, key_attribute="id", backend=backend
            )
        else:
            m, _sink, result = run_fasp(
                keyed_pattern, keyed_streams, TranslationOptions.o3(), backend=backend
            )
        assert m.matches == single.count
        assert result.metadata["shards"] == shards
        assert len(result.metadata["shard_events_in"]) == shards

    def test_more_shards_than_keys_leaves_shards_idle(self, keyed_pattern, keyed_streams):
        # 8 segment ids over 16 shards: at most 8 shards see any event.
        _m, _sink, result = run_fcep(
            keyed_pattern, keyed_streams, key_attribute="id",
            backend=ShardedBackend(shards=16),
        )
        busy = [n for n in result.metadata["shard_events_in"] if n]
        assert 0 < len(busy) <= 8
        assert sum(busy) == sum(len(v) for v in keyed_streams.values())

    def test_throughput_is_over_the_measured_makespan(self, keyed_pattern, keyed_streams):
        measurement, _sink, result = run_fasp(
            keyed_pattern, keyed_streams, TranslationOptions.o3(),
            backend=ShardedBackend(shards=4),
        )
        makespan = result.metadata["makespan_seconds"]
        assert makespan == max(result.metadata["shard_pipeline_seconds"])
        assert measurement.throughput_tps == pytest.approx(
            measurement.events_in / makespan
        )
        assert measurement.extras["backend"] == "sharded"
        assert measurement.extras["shards"] == 4

    def test_collected_matches_are_complete_and_time_ordered(
        self, keyed_pattern, keyed_streams
    ):
        _m0, single, _res = run_fasp(
            keyed_pattern, keyed_streams, TranslationOptions.o3(), collect=True
        )
        _m, sharded, _res = run_fasp(
            keyed_pattern, keyed_streams, TranslationOptions.o3(), collect=True,
            backend=ShardedBackend(shards=4),
        )
        stamps = [match.ts for match in sharded.items]
        assert stamps == sorted(stamps)
        assert sorted(m.dedup_key() for m in sharded.matches()) == sorted(
            m.dedup_key() for m in single.matches()
        )


def _shard_result(events, pipeline_seconds, **fields):
    return RunResult(
        "job", events, events // 2, wall_seconds=pipeline_seconds,
        peak_state_bytes=10 * events, work_units=events,
        stage_seconds={"join#1": pipeline_seconds}, **fields,
    )


def _merge(results):
    return merge_shard_results(
        "job", results, 1.0, shards=len(results), key_attribute="id"
    )


class TestMergeShardResults:
    def test_totals_add_up_across_shards(self):
        merged = _merge([_shard_result(40, 0.2), _shard_result(60, 0.3)])
        assert merged.events_in == 100
        assert merged.items_out == 50
        assert merged.peak_state_bytes == 1000
        assert merged.work_units == 100
        assert merged.metadata["shard_events_in"] == [40, 60]

    def test_makespan_is_the_slowest_shard(self):
        merged = _merge([_shard_result(40, 0.2), _shard_result(60, 0.5)])
        assert merged.metadata["makespan_seconds"] == 0.5
        assert merged.pipeline_seconds == 0.5
        assert merged.throughput_tps == pytest.approx(100 / 0.5)

    def test_a_failed_shard_fails_the_job(self):
        merged = _merge([
            _shard_result(40, 0.2),
            _shard_result(60, 0.3, failed=True, failure="boom"),
        ])
        assert merged.failed
        assert merged.failure == "shard 1: boom"

    def test_stage_times_keep_their_shard(self):
        merged = _merge([_shard_result(40, 0.2), _shard_result(60, 0.3)])
        assert merged.stage_seconds == {"join#1@s0": 0.2, "join#1@s1": 0.3}

    def test_no_shards_merge_to_an_empty_run(self):
        merged = _merge([])
        assert merged.events_in == 0
        assert not merged.failed
        assert merged.metadata["makespan_seconds"] == 0.0
        assert merged.throughput_tps == 0.0


class TestMetrics:
    def test_format_tps(self):
        assert format_tps(1_500_000) == "1.50M tpl/s"
        assert format_tps(2_500) == "2.5k tpl/s"
        assert format_tps(42) == "42 tpl/s"

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KB"
        assert "GB" in format_bytes(3 * 1024**3)

    def test_speedup(self):
        base = ThroughputMeasurement("FCEP", "p", 1, 0, 1.0, 100.0, 0, 0)
        fast = ThroughputMeasurement("FASP", "p", 1, 0, 1.0, 250.0, 0, 0)
        assert speedup(base, fast) == 2.5

    def test_output_selectivity_pct(self):
        m = ThroughputMeasurement("FASP", "p", 200, 4, 1.0, 1.0, 0, 0)
        assert m.output_selectivity_pct == 2.0

    def test_resource_series_and_cpu_proxy(self, keyed_pattern, keyed_streams):
        _m, _sink, result = run_fasp(
            keyed_pattern, keyed_streams, sample_every=200
        )
        samples = resource_series(result)
        assert len(samples) > 2
        cpu = cpu_proxy_series(samples)
        assert all(0.0 <= u <= 100.0 for _t, u in cpu)

    def test_cpu_proxy_short_series(self):
        assert cpu_proxy_series([]) == []

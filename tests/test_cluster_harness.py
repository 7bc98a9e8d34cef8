"""Tests for the simulated cluster and the FCEP/FASP harness."""

import pytest

from repro.asp.datamodel import Event
from repro.asp.time import minutes
from repro.errors import ClusterError
from repro.mapping.optimizations import TranslationOptions
from repro.runtime.cluster import (
    ClusterConfig,
    partition_streams,
    run_on_cluster,
)
from repro.runtime.harness import (
    run_fasp,
    run_fasp_on_cluster,
    run_fcep,
    run_fcep_on_cluster,
)
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


class TestClusterConfig:
    def test_total_slots(self):
        assert ClusterConfig(num_workers=2, slots_per_worker=8).total_slots == 16

    def test_memory_per_slot(self):
        config = ClusterConfig(slots_per_worker=4, memory_per_worker_bytes=4000)
        assert config.memory_per_slot_bytes == 1000

    def test_no_budget(self):
        assert ClusterConfig().memory_per_slot_bytes is None

    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ClusterError):
            ClusterConfig(slots_per_worker=0)


class TestPartitioning:
    def test_all_events_routed(self, keyed_streams):
        parts = partition_streams(keyed_streams, 4)
        total = sum(len(v) for p in parts for v in p.values())
        assert total == sum(len(v) for v in keyed_streams.values())

    def test_same_key_same_partition(self, keyed_streams):
        parts = partition_streams(keyed_streams, 4)
        for idx, part in enumerate(parts):
            for events in part.values():
                for e in events:
                    from repro.asp.operators.keyby import partition_for

                    assert partition_for(e.id, 4) == idx

    def test_custom_key_fn(self):
        streams = {"Q": [Event("Q", ts=0, id=1, value=5.0)]}
        parts = partition_streams(streams, 2, key_fn=lambda e: "fixed")
        non_empty = [p for p in parts if p["Q"]]
        assert len(non_empty) == 1


class TestRunOnCluster:
    def test_idle_slots_skipped(self, keyed_streams):
        # 8 keys over 64 slots: at most 8 busy slots.
        config = ClusterConfig(num_workers=4, slots_per_worker=16)

        def job(streams, budget):
            from repro.asp.runtime import RunResult

            total = sum(len(v) for v in streams.values())
            return (
                RunResult("job", total, 0, wall_seconds=0.01,
                          peak_state_bytes=0, work_units=total),
                0,
            )

        outcome = run_on_cluster(keyed_streams, job, config)
        assert 0 < len(outcome.slots) <= 8
        assert outcome.events_in == sum(len(v) for v in keyed_streams.values())

    def test_makespan_is_max_over_workers(self, keyed_streams):
        config = ClusterConfig(num_workers=2, slots_per_worker=2)

        def job(streams, budget):
            from repro.asp.runtime import RunResult

            total = sum(len(v) for v in streams.values())
            return (
                RunResult("job", total, 0, wall_seconds=total / 1000.0,
                          peak_state_bytes=0, work_units=total),
                0,
            )

        outcome = run_on_cluster(keyed_streams, job, config)
        assert outcome.makespan_seconds == max(outcome.worker_wall_seconds())
        assert outcome.throughput_tps > 0

    def test_failure_propagates(self, keyed_streams):
        config = ClusterConfig(num_workers=1, slots_per_worker=2)

        def job(streams, budget):
            from repro.asp.runtime import RunResult

            total = sum(len(v) for v in streams.values())
            return (
                RunResult("job", total, 0, wall_seconds=0.01, peak_state_bytes=0,
                          work_units=0, failed=True, failure="boom"),
                0,
            )

        outcome = run_on_cluster(keyed_streams, job, config)
        assert outcome.failed
        assert "boom" in outcome.failure

    def test_skew_metric(self, keyed_streams):
        config = ClusterConfig(num_workers=1, slots_per_worker=4)

        def job(streams, budget):
            from repro.asp.runtime import RunResult

            total = sum(len(v) for v in streams.values())
            return (
                RunResult("job", total, 0, wall_seconds=0.01,
                          peak_state_bytes=0, work_units=0),
                0,
            )

        outcome = run_on_cluster(keyed_streams, job, config)
        assert outcome.skew() >= 1.0


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

    def test_cluster_runs_agree_with_single_node(self, keyed_pattern, keyed_streams):
        _m0, sink0, _res = run_fcep(keyed_pattern, keyed_streams, key_attribute="id")
        config = ClusterConfig(num_workers=1, slots_per_worker=4)
        m_fcep, _out = run_fcep_on_cluster(keyed_pattern, keyed_streams, config)
        m_fasp, _out = run_fasp_on_cluster(
            keyed_pattern, keyed_streams, config, TranslationOptions.o3()
        )
        assert m_fcep.matches == sink0.count
        assert m_fasp.matches == sink0.count

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

"""Tests for the synthetic workload generators and selectivity calibration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.datamodel import Event
from repro.asp.time import MS_PER_MINUTE, minutes
from repro.errors import WorkloadError
from repro.workloads.airquality import (
    AQ_TYPES,
    AirQualityConfig,
    aq_stream,
    aq_streams,
    threshold_for_selectivity,
)
from repro.workloads.csvio import read_events, round_trip_equal, write_events
from repro.workloads.generator import (
    StreamSpec,
    WorkloadConfig,
    duration_for_events,
    generate_stream,
    generate_workload,
    merged_timeline,
)
from repro.workloads.qnv import (
    QnVConfig,
    qnv_streams,
    quantity_threshold_for_selectivity,
    velocity_threshold_for_selectivity,
)
from repro.workloads.selectivity import (
    calibrate_filter_selectivity,
    calibrate_iter_filter,
    calibrate_seq_n_filter,
    iter_output_matches_per_window,
    seq2_output_selectivity,
)


class TestStreamSpec:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            StreamSpec("Q", period_ms=0)
        with pytest.raises(WorkloadError):
            StreamSpec("Q", num_sensors=0)
        with pytest.raises(WorkloadError):
            StreamSpec("Q", value_min=10, value_max=5)

    def test_default_ids(self):
        assert StreamSpec("Q", num_sensors=3).ids() == (1, 2, 3)

    def test_custom_ids(self):
        spec = StreamSpec("Q", num_sensors=2, sensor_ids=(10, 20))
        assert spec.ids() == (10, 20)


class TestGenerateStream:
    def test_deterministic_under_seed(self):
        spec = StreamSpec("Q", num_sensors=2)
        a = generate_stream(spec, minutes(30), seed=5)
        b = generate_stream(spec, minutes(30), seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        spec = StreamSpec("Q")
        a = generate_stream(spec, minutes(30), seed=1)
        b = generate_stream(spec, minutes(30), seed=2)
        assert a != b

    def test_grid_aligned_timestamps(self):
        spec = StreamSpec("Q", period_ms=MS_PER_MINUTE)
        events = generate_stream(spec, minutes(10))
        assert all(e.ts % MS_PER_MINUTE == 0 for e in events)

    def test_event_count(self):
        spec = StreamSpec("Q", num_sensors=3, period_ms=MS_PER_MINUTE)
        events = generate_stream(spec, minutes(10))
        assert len(events) == 30

    def test_values_within_range(self):
        spec = StreamSpec("Q", value_min=10.0, value_max=20.0)
        events = generate_stream(spec, minutes(60))
        assert all(10.0 <= e.value < 20.0 for e in events)

    def test_time_ordered(self):
        events = generate_stream(StreamSpec("Q", num_sensors=2), minutes(30))
        assert [e.ts for e in events] == sorted(e.ts for e in events)


class TestWorkloadConfig:
    def test_total_events_estimate(self):
        config = WorkloadConfig(
            streams=[StreamSpec("Q", num_sensors=2), StreamSpec("V", num_sensors=2)],
            duration_ms=minutes(100),
        )
        assert config.total_events() == 400

    def test_generate_workload_keys_by_type(self):
        config = WorkloadConfig(
            streams=[StreamSpec("Q"), StreamSpec("V")], duration_ms=minutes(10)
        )
        streams = generate_workload(config)
        assert set(streams) == {"Q", "V"}

    def test_duplicate_type_rejected(self):
        config = WorkloadConfig(
            streams=[StreamSpec("Q"), StreamSpec("Q")], duration_ms=minutes(10)
        )
        with pytest.raises(WorkloadError, match="duplicate"):
            generate_workload(config)

    def test_duration_for_events(self):
        streams = [StreamSpec("Q", num_sensors=2), StreamSpec("V", num_sensors=2)]
        duration = duration_for_events(4000, streams)
        total = sum(
            (duration // s.period_ms) * s.num_sensors for s in streams
        )
        assert abs(total - 4000) <= 4

    def test_merged_timeline_ordered(self):
        config = WorkloadConfig(
            streams=[StreamSpec("Q"), StreamSpec("V")], duration_ms=minutes(20)
        )
        merged = merged_timeline(generate_workload(config))
        assert [e.ts for e in merged] == sorted(e.ts for e in merged)


class TestQnV:
    def test_streams_have_paper_schema(self):
        streams = qnv_streams(QnVConfig(num_segments=2, duration_ms=minutes(10)))
        q = streams["Q"][0]
        assert q.event_type == "Q"
        assert q.id in (1, 2)
        assert q.lat and q.lon

    def test_quantity_threshold_inverse(self):
        threshold = quantity_threshold_for_selectivity(0.25)
        assert threshold == 75.0  # P(value > 75) = 0.25 on [0, 100)

    def test_velocity_threshold_inverse(self):
        threshold = velocity_threshold_for_selectivity(0.2)
        assert threshold == 30.0  # P(value < 30) = 0.2 on [0, 150)

    def test_threshold_selectivity_empirical(self):
        streams = qnv_streams(QnVConfig(num_segments=4, duration_ms=minutes(2000)))
        threshold = quantity_threshold_for_selectivity(0.1)
        hits = sum(1 for e in streams["Q"] if e.value > threshold)
        assert hits / len(streams["Q"]) == pytest.approx(0.1, abs=0.02)

    def test_invalid_selectivity(self):
        with pytest.raises(ValueError):
            quantity_threshold_for_selectivity(1.5)


class TestAirQuality:
    def test_all_types(self):
        streams = aq_streams(AirQualityConfig(duration_ms=minutes(40)))
        assert set(streams) == set(AQ_TYPES)

    def test_four_minute_period(self):
        events = aq_stream(AirQualityConfig(duration_ms=minutes(40)), "PM10")
        assert len(events) == 10

    def test_unknown_type(self):
        with pytest.raises(KeyError):
            aq_stream(AirQualityConfig(), "NOPE")

    def test_threshold_above_and_below(self):
        above = threshold_for_selectivity("PM10", 0.25, above=True)
        below = threshold_for_selectivity("PM10", 0.25, above=False)
        assert above == 90.0
        assert below == 30.0


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        events = generate_stream(StreamSpec("Q", num_sensors=2), minutes(20))
        assert round_trip_equal(events, tmp_path / "q.csv")

    def test_round_trip_with_attrs(self, tmp_path):
        events = [Event("Q", ts=1, attrs={"a_ts": 5})]
        write_events(tmp_path / "x.csv", events)
        assert list(read_events(tmp_path / "x.csv")) == events

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            list(read_events(path))

    def test_write_returns_count(self, tmp_path):
        events = generate_stream(StreamSpec("Q"), minutes(5))
        assert write_events(tmp_path / "q.csv", events) == len(events)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert list(read_events(path)) == []


class TestSelectivityCalibration:
    def test_seq2_model_monotone(self):
        lo = seq2_output_selectivity(0.01, minutes(15))
        hi = seq2_output_selectivity(0.1, minutes(15))
        assert hi > lo

    def test_calibrate_inverts_model(self):
        target = 0.01
        p = calibrate_filter_selectivity(target, minutes(15), sensors=2)
        assert seq2_output_selectivity(p, minutes(15), sensors=2) == pytest.approx(target)

    def test_calibrate_clamps_to_unit(self):
        assert calibrate_filter_selectivity(100.0, minutes(15)) == 1.0

    def test_iter_model_poisson_identity(self):
        # lam = 3 per window, m = 2: E[C(N,2)] = 9/2
        assert iter_output_matches_per_window(0.2, 2, minutes(15)) == pytest.approx(4.5)

    def test_calibrate_iter_inverts(self):
        p = calibrate_iter_filter(0.9, 4, minutes(90))
        assert iter_output_matches_per_window(p, 4, minutes(90)) == pytest.approx(0.9, rel=1e-6)

    def test_calibrate_iter_sensors_scale(self):
        p1 = calibrate_iter_filter(1.0, 3, minutes(15), sensors=1)
        p4 = calibrate_iter_filter(1.0, 3, minutes(15), sensors=4)
        assert p4 == pytest.approx(p1 / 4)

    def test_calibrate_seq_n(self):
        p = calibrate_seq_n_filter(1e-3, 3, qualifying_per_window=15)
        lam = p * 15
        assert lam**3 / 6 == pytest.approx(1e-3, rel=1e-6)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_filter_selectivity(-1, minutes(15))
        with pytest.raises(ValueError):
            calibrate_iter_filter(-1, 2, minutes(15))

    @settings(max_examples=25, deadline=None)
    @given(target=st.floats(min_value=1e-6, max_value=0.2),
           window=st.integers(min_value=5, max_value=120),
           sensors=st.integers(min_value=1, max_value=16))
    def test_calibration_round_trip_property(self, target, window, sensors):
        p = calibrate_filter_selectivity(target, minutes(window), sensors=sensors)
        if p < 1.0:  # inside the invertible region
            back = seq2_output_selectivity(p, minutes(window), sensors=sensors)
            assert back == pytest.approx(target, rel=1e-6)

    def test_empirical_seq2_selectivity_close_to_model(self):
        """The calibration model vs an actual oracle run."""
        from repro.sea.parser import parse_pattern
        from repro.sea.semantics import evaluate_pattern
        from repro.asp.datamodel import merge_events

        sensors, window_min = 2, 10
        streams = qnv_streams(
            QnVConfig(num_segments=sensors, duration_ms=minutes(600), seed=9)
        )
        target = 0.02
        p = calibrate_filter_selectivity(target, minutes(window_min), sensors=sensors)
        q_th = quantity_threshold_for_selectivity(p)
        v_th = velocity_threshold_for_selectivity(p)
        pattern = parse_pattern(
            f"PATTERN SEQ(Q a, V b) WHERE a.value > {q_th} AND b.value < {v_th} "
            f"WITHIN {window_min} MINUTES SLIDE 1 MINUTE"
        )
        events = merge_events(streams["Q"], streams["V"])
        matches = evaluate_pattern(pattern, events)
        sigma = len(matches) / len(events)
        assert sigma == pytest.approx(target, rel=0.6)  # stochastic tolerance


class TestSkewedGeneration:
    def test_zipf_weights_sum_to_one(self):
        from repro.workloads.generator import zipf_weights

        weights = zipf_weights(10, exponent=1.2)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_zero_exponent_is_uniform(self):
        from repro.workloads.generator import zipf_weights

        weights = zipf_weights(5, exponent=0.0)
        assert all(w == pytest.approx(0.2) for w in weights)

    def test_invalid_parameters(self):
        from repro.workloads.generator import zipf_weights

        with pytest.raises(WorkloadError):
            zipf_weights(0)
        with pytest.raises(WorkloadError):
            zipf_weights(3, exponent=-1)

    def test_skewed_stream_concentrates_on_low_ids(self):
        from collections import Counter

        from repro.workloads.generator import generate_skewed_stream

        spec = StreamSpec("Q", num_sensors=8)
        events = generate_skewed_stream(spec, minutes(2000), exponent=1.5, seed=5)
        counts = Counter(e.id for e in events)
        assert counts[1] > 3 * counts[8]

    def test_skewed_stream_time_ordered_and_deterministic(self):
        from repro.workloads.generator import generate_skewed_stream

        spec = StreamSpec("Q", num_sensors=4)
        a = generate_skewed_stream(spec, minutes(200), seed=3)
        b = generate_skewed_stream(spec, minutes(200), seed=3)
        assert a == b
        assert [e.ts for e in a] == sorted(e.ts for e in a)


class TestShardSkew:
    def test_skewed_keys_unbalance_shards(self):
        """A Zipf workload produces measurable shard imbalance — the
        mechanism behind the paper's keys-vs-slots observations."""
        from repro.asp.runtime import ShardedBackend
        from repro.runtime.harness import run_fcep
        from repro.sea.parser import parse_pattern
        from repro.workloads.generator import generate_skewed_stream

        spec = StreamSpec("Q", num_sensors=16)
        events = generate_skewed_stream(spec, minutes(1000), exponent=1.5, seed=2)
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, Q b) WHERE a.value > 1000 AND a.id = b.id "
            "WITHIN 5 MINUTES"
        )
        _m, _sink, result = run_fcep(
            pattern, {"Q": events}, key_attribute="id",
            backend=ShardedBackend(shards=4),
        )
        sizes = [n for n in result.metadata["shard_events_in"] if n]
        assert sum(sizes) == len(events)
        assert max(sizes) / (sum(sizes) / len(sizes)) > 1.1

"""Tests for the queueing-based load model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.runtime import RunResult
from repro.errors import BackpressureError
from repro.runtime.ratesim import PipelineModel, Station, compare_under_load


def run_result(stage_seconds, events=1000):
    return RunResult(
        job_name="j", events_in=events, items_out=0, wall_seconds=1.0,
        peak_state_bytes=0, work_units=0, stage_seconds=stage_seconds,
    )


class TestStation:
    def test_utilization_linear_in_rate(self):
        station = Station("s", service_s=0.001)
        assert station.utilization(500) == pytest.approx(0.5)

    def test_waiting_grows_toward_saturation(self):
        station = Station("s", service_s=0.001)
        low = station.waiting_s(100)
        high = station.waiting_s(900)
        assert 0 < low < high

    def test_waiting_infinite_at_saturation(self):
        station = Station("s", service_s=0.001)
        assert math.isinf(station.waiting_s(1000))
        assert math.isinf(station.waiting_s(2000))

    def test_md1_closed_form(self):
        # rho = 0.5: W = 0.5 * s / (2 * 0.5) = s / 2
        station = Station("s", service_s=0.002)
        assert station.waiting_s(250) == pytest.approx(0.001)


class TestPipelineModel:
    def test_from_run_divides_busy_by_events(self):
        model = PipelineModel.from_run(
            run_result({"filter#1": 0.1, "join#2": 0.4}, events=1000)
        )
        services = {s.name: s.service_s for s in model.stations}
        assert services["filter#1"] == pytest.approx(0.0001)
        assert services["join#2"] == pytest.approx(0.0004)

    def test_bottleneck_and_sustainable_rate(self):
        model = PipelineModel.from_run(
            run_result({"filter#1": 0.1, "join#2": 0.4}, events=1000)
        )
        assert model.bottleneck.name == "join#2"
        assert model.max_sustainable_tps() == pytest.approx(2500.0)

    def test_sustainability_boundary(self):
        model = PipelineModel.from_run(run_result({"op#1": 0.5}, events=1000))
        assert model.is_sustainable(1999)
        assert not model.is_sustainable(2000)

    def test_expected_latency_monotone_in_rate(self):
        model = PipelineModel.from_run(
            run_result({"a#1": 0.2, "b#2": 0.3}, events=1000)
        )
        low = model.expected_latency_s(500)
        high = model.expected_latency_s(3000)
        assert 0 < low < high

    def test_latency_infinite_beyond_saturation(self):
        model = PipelineModel.from_run(run_result({"a#1": 0.5}, events=1000))
        assert math.isinf(model.expected_latency_s(3000))

    def test_windowing_lag_added(self):
        model = PipelineModel.from_run(run_result({"a#1": 0.1}, events=1000))
        base = model.expected_latency_s(100)
        with_lag = model.expected_latency_s(100, windowing_lag_s=2.0)
        assert with_lag == pytest.approx(base + 2.0)

    def test_latency_curve_shapes(self):
        model = PipelineModel.from_run(run_result({"a#1": 0.2}, events=1000))
        curve = model.latency_curve()
        rates = [r for r, _l in curve]
        latencies = [l for _r, l in curve]
        assert rates == sorted(rates)
        assert latencies == sorted(latencies)

    def test_invalid_inputs(self):
        with pytest.raises(BackpressureError):
            PipelineModel.from_run(run_result({}, events=0))
        with pytest.raises(BackpressureError):
            PipelineModel.from_run(run_result({}, events=10))
        model = PipelineModel.from_run(run_result({"a#1": 0.1}))
        with pytest.raises(BackpressureError):
            model.expected_latency_s(0)

    def test_describe(self):
        model = PipelineModel.from_run(run_result({"a#1": 0.1, "b#2": 0.2}))
        text = model.describe()
        assert "bottleneck: b#2" in text

    @settings(max_examples=30, deadline=None)
    @given(
        services=st.lists(
            st.floats(min_value=1e-7, max_value=1e-3), min_size=1, max_size=6
        ),
        utilization=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_property_sustainable_below_saturation(self, services, utilization):
        stage_seconds = {f"s#{i}": s * 1000 for i, s in enumerate(services)}
        model = PipelineModel.from_run(run_result(stage_seconds, events=1000))
        rate = utilization * model.max_sustainable_tps()
        if rate <= 0:
            return
        assert model.is_sustainable(rate)
        assert math.isfinite(model.expected_latency_s(rate))


class TestPaperShape:
    def test_concentrated_work_saturates_before_decomposed(self):
        """The mechanism behind the paper's Figure 3b latency story:
        identical total work, concentrated in one station vs spread over
        four — the monolith saturates at a quarter of the rate and its
        latency diverges first."""
        total_busy = 0.8
        fcep = run_result({"cep#1": total_busy}, events=1000)
        fasp = run_result(
            {f"op#{i}": total_busy / 4 for i in range(4)}, events=1000
        )
        # FCEP saturates at 1 / (0.8 ms) = 1250 tps; FASP at 5000 tps.
        rates = compare_under_load(fcep, fasp, offered_tps=1300)
        assert math.isinf(rates["FCEP"])      # beyond FCEP's saturation
        assert math.isfinite(rates["FASP"])    # well within FASP's
        fcep_model = PipelineModel.from_run(fcep)
        fasp_model = PipelineModel.from_run(fasp)
        assert fasp_model.max_sustainable_tps() == pytest.approx(
            4 * fcep_model.max_sustainable_tps()
        )

    def test_real_runs_feed_the_model(self):
        """End to end with measured runs: the FASP pipeline sustains at
        least the FCEP rate for the same pattern and workload."""
        from repro.experiments.common import Scale, qnv_workload, seq2_pattern
        from repro.runtime.harness import run_fasp, run_fcep

        streams = qnv_workload(Scale(events=4000, sensors=2, seed=5))
        pattern = seq2_pattern(0.05, window_minutes=10)
        _m1, _s1, fcep_result = run_fcep(pattern, streams)
        _m2, _s2, fasp_result = run_fasp(pattern, streams)
        fcep_model = PipelineModel.from_run(fcep_result)
        fasp_model = PipelineModel.from_run(fasp_result)
        assert fasp_model.max_sustainable_tps() >= fcep_model.max_sustainable_tps() * 0.8
        # Latency at half of FCEP's saturation: both finite, FASP's lower
        # or comparable.
        rate = 0.5 * fcep_model.max_sustainable_tps()
        fcep_latency = fcep_model.expected_latency_s(rate)
        fasp_latency = fasp_model.expected_latency_s(rate)
        assert math.isfinite(fcep_latency) and math.isfinite(fasp_latency)

"""Tests for report rendering, measurement records, and small leftovers."""

import pytest

from repro.asp.datamodel import Event
from repro.asp.runtime import RunResult, merge_sources
from repro.asp.graph import Dataflow
from repro.asp.operators.source import ListSource
from repro.experiments.common import ExperimentRow, rows_summary
from repro.experiments.report import render_bars, render_figure, shape_checks
from repro.runtime.metrics import ThroughputMeasurement


def row(pattern="P", approach="FASP", parameter="x=1", tput=100.0,
        failed=False, matches=1):
    return ExperimentRow(
        experiment="e", pattern=pattern, approach=approach, parameter=parameter,
        throughput_tps=tput, matches=matches, events_in=100, wall_seconds=0.1,
        peak_state_bytes=0, failed=failed,
    )


class TestRenderFigure:
    def test_missing_cell_rendered_as_dash(self):
        rows = [row(approach="FCEP"), row(approach="FASP", parameter="x=2")]
        text = render_figure(rows, "t")
        assert "-" in text

    def test_failed_cell_rendered(self):
        rows = [row(approach="FCEP", failed=True), row(approach="FASP")]
        text = render_figure(rows, "t")
        assert "FAILED" in text

    def test_multiple_patterns_grouped(self):
        rows = [row(pattern="A"), row(pattern="B")]
        text = render_figure(rows, "t")
        assert "A" in text and "B" in text


class TestRenderBars:
    def test_bars_scale_with_throughput(self):
        rows = [row(approach="FCEP", tput=50.0), row(approach="FASP", tput=100.0)]
        text = render_bars(rows, "bars")
        fcep_line = next(l for l in text.splitlines() if "FCEP" in l)
        fasp_line = next(l for l in text.splitlines() if "FASP" in l)
        assert fasp_line.count("█") > fcep_line.count("█")

    def test_failed_bar_annotated(self):
        rows = [row(approach="FCEP", failed=True), row(approach="FASP")]
        text = render_bars(rows, "bars")
        assert "memory exhausted" in text

    def test_empty_rows(self):
        assert "(no data)" in render_bars([], "bars")


class TestShapeChecks:
    def test_fasp_win_passes(self):
        rows = [row(approach="FCEP", tput=50.0), row(approach="FASP", tput=100.0)]
        assert all(shape_checks(rows).values())

    def test_fcep_dominates_fails(self):
        rows = [row(approach="FCEP", tput=500.0), row(approach="FASP", tput=100.0)]
        assert not all(shape_checks(rows).values())

    def test_failed_fcep_counts_as_fasp_win(self):
        rows = [row(approach="FCEP", tput=500.0, failed=True),
                row(approach="FASP", tput=1.0)]
        assert all(shape_checks(rows).values())

    def test_cells_without_fcep_skipped(self):
        rows = [row(approach="FASP")]
        assert shape_checks(rows) == {}


class TestRowsAndMeasurements:
    def test_rows_summary_renders_failures(self):
        text = rows_summary([row(), row(approach="FCEP", failed=True)])
        assert "FAILED" in text and "tpl/s" in text

    def test_from_run_copies_fields(self):
        result = RunResult(
            job_name="j", events_in=100, items_out=5, wall_seconds=2.0,
            peak_state_bytes=10, work_units=7,
        )
        m = ThroughputMeasurement.from_run("FASP", "P", result, matches=5)
        assert m.events_in == 100
        assert m.wall_seconds == 2.0
        assert m.peak_state_bytes == 10
        assert not m.failed

    def test_from_run_propagates_failure(self):
        result = RunResult(
            job_name="j", events_in=1, items_out=0, wall_seconds=1.0,
            peak_state_bytes=0, work_units=0, failed=True, failure="boom",
        )
        m = ThroughputMeasurement.from_run("FCEP", "P", result, matches=0)
        assert m.failed and m.failure == "boom"

    def test_experiment_row_from_measurement_merges_extras(self):
        result = RunResult(
            job_name="j", events_in=1, items_out=0, wall_seconds=1.0,
            peak_state_bytes=0, work_units=0,
        )
        m = ThroughputMeasurement.from_run("FASP", "P", result, matches=0, foo=1)
        r = ExperimentRow.from_measurement("e", "x=1", m, bar=2)
        assert r.extras == {"foo": 1, "bar": 2}


class TestMergeSourcesDetails:
    def test_interleaves_three_sources(self):
        flow = Dataflow()
        flow.add_source(ListSource([Event("A", ts=2)]))
        flow.add_source(ListSource([Event("B", ts=1)]))
        flow.add_source(ListSource([Event("C", ts=3)]))
        merged = [e.event_type for _n, e in merge_sources(flow.source_nodes())]
        assert merged == ["B", "A", "C"]

    def test_tie_break_by_source_order(self):
        flow = Dataflow()
        flow.add_source(ListSource([Event("A", ts=1)]))
        flow.add_source(ListSource([Event("B", ts=1)]))
        merged = [e.event_type for _n, e in merge_sources(flow.source_nodes())]
        assert merged == ["A", "B"]

    def test_source_emitted_counter(self):
        source = ListSource([Event("A", ts=1), Event("A", ts=2)])
        list(source)
        assert source.emitted == 2


class TestRunResultProperties:
    def test_serial_vs_pipeline_throughput(self):
        result = RunResult(
            job_name="j", events_in=1000, items_out=0, wall_seconds=1.0,
            peak_state_bytes=0, work_units=0,
            stage_seconds={"a": 0.4, "b": 0.4},
        )
        assert result.serial_throughput_tps == pytest.approx(1000.0)
        # pipelined: bounded by the busiest stage (0.4s) vs residual (0.2s)
        assert result.pipeline_seconds == pytest.approx(0.4)
        assert result.throughput_tps == pytest.approx(2500.0)

    def test_residual_becomes_bottleneck(self):
        result = RunResult(
            job_name="j", events_in=1000, items_out=0, wall_seconds=1.0,
            peak_state_bytes=0, work_units=0,
            stage_seconds={"a": 0.1},
        )
        assert result.pipeline_seconds == pytest.approx(0.9)

    def test_no_stages_falls_back_to_wall(self):
        result = RunResult(
            job_name="j", events_in=10, items_out=0, wall_seconds=2.0,
            peak_state_bytes=0, work_units=0,
        )
        assert result.pipeline_seconds == 2.0

    def test_zero_events(self):
        result = RunResult(
            job_name="j", events_in=0, items_out=0, wall_seconds=0.0,
            peak_state_bytes=0, work_units=0,
        )
        assert result.throughput_tps == 0.0
        assert result.serial_throughput_tps == 0.0

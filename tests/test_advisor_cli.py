"""Tests for the optimization advisor and the command-line interface."""

import pytest

from repro.asp.datamodel import Event, TypeRegistry
from repro.asp.time import minutes
from repro.cli import main
from repro.mapping.advisor import (
    Recommendation,
    StreamStatistics,
    recommend_options,
    statistics_from_streams,
)
from repro.mapping.plan import WindowStrategy
from repro.sea.parser import parse_pattern


def stats(**rates):
    return {
        t: StreamStatistics(t, rate_eps=r) for t, r in rates.items()
    }


class TestAdvisor:
    def test_equi_predicates_trigger_o3_reasoning(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 15 MINUTES"
        )
        rec = recommend_options(pattern, stats(Q=1.0, V=1.0))
        assert any("O3" in r for r in rec.reasons)

    def test_explicit_partition_attribute(self):
        pattern = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES")
        rec = recommend_options(pattern, partition_attribute="id")
        assert rec.options.partition_attribute == "id"

    def test_sparse_left_stream_selects_interval_join(self):
        pattern = parse_pattern("PATTERN SEQ(PM10 a, V b) WITHIN 15 MINUTES")
        rec = recommend_options(pattern, stats(PM10=0.01, V=1.0))
        assert rec.options.join_strategy is WindowStrategy.INTERVAL
        assert any("O1" in r for r in rec.reasons)

    def test_busy_left_stream_keeps_sliding_windows(self):
        pattern = parse_pattern(
            "PATTERN SEQ(V a, PM10 b) WITHIN 15 MINUTES SLIDE 1 MINUTE"
        )
        rec = recommend_options(pattern, stats(V=1.0, PM10=0.01))
        assert rec.options.join_strategy is WindowStrategy.SLIDING
        assert any("sliding windows kept" in r for r in rec.reasons)

    def test_many_concurrent_windows_select_interval_join(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 90 MINUTES SLIDE 1 MINUTE"
        )
        rec = recommend_options(pattern, stats(Q=1.0, V=1.0))
        assert rec.options.join_strategy is WindowStrategy.INTERVAL

    def test_iterations_recommend_o2(self):
        pattern = parse_pattern("PATTERN ITER3(V v) WITHIN 15 MINUTES")
        rec = recommend_options(pattern)
        assert rec.options.iteration_strategy == "aggregate"

    def test_kleene_plus_forces_o2(self):
        pattern = parse_pattern("PATTERN ITER2+(V v) WITHIN 15 MINUTES")
        rec = recommend_options(pattern)
        assert rec.options.iteration_strategy == "aggregate"
        assert any("Kleene" in r for r in rec.reasons)

    def test_registry_frequencies_used_as_fallback(self):
        pattern = parse_pattern(
            "PATTERN SEQ(PM10 a, Q b) WITHIN 15 MINUTES SLIDE 1 MINUTE"
        )
        rec = recommend_options(pattern, registry=TypeRegistry.paper_default())
        # PM10 reports every 4 minutes vs Q every minute: sparse left.
        assert rec.options.join_strategy is WindowStrategy.INTERVAL

    def test_no_opportunity_yields_plain_fasp(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE"
        )
        rec = recommend_options(pattern)
        assert rec.options.label() == "FASP"
        assert rec.reasons

    def test_explain_renders(self):
        pattern = parse_pattern("PATTERN ITER3(V v) WITHIN 15 MINUTES")
        text = recommend_options(pattern).explain()
        assert "recommended configuration" in text

    def test_statistics_from_streams(self):
        streams = {
            "Q": [Event("Q", ts=i * minutes(1)) for i in range(61)],
            "E": [Event("E", ts=0)],
        }
        got = statistics_from_streams(streams)
        assert got["Q"].rate_eps == pytest.approx(61 / 3600.0, rel=0.05)
        assert got["E"].rate_eps == 0.0

    def test_recommended_options_execute(self):
        """End-to-end: advisor output translates and runs."""
        from repro.asp.operators.source import ListSource
        from repro.mapping.translator import translate

        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES SLIDE 1 MINUTE"
        )
        events_q = [Event("Q", ts=i * minutes(1), id=1, value=50.0) for i in range(20)]
        events_v = [Event("V", ts=i * minutes(1) + 30, id=1, value=10.0) for i in range(20)]
        rec = recommend_options(
            pattern, statistics_from_streams({"Q": events_q, "V": events_v})
        )
        query = translate(
            pattern,
            {"Q": ListSource(events_q, event_type="Q"),
             "V": ListSource(events_v, event_type="V")},
            rec.options,
        )
        query.execute()
        assert query.matches()


class TestCli:
    def test_explain(self, capsys):
        rc = main(["explain", "-p", "PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "LogicalPlan" in out
        assert "SELECT *" in out

    def test_generate_and_run_roundtrip(self, tmp_path, capsys):
        rc = main([
            "generate", "--out", str(tmp_path), "--segments", "2",
            "--minutes", "120",
        ])
        assert rc == 0
        rc = main([
            "run", "-p",
            "PATTERN SEQ(Q a, V b) WHERE a.value > 80 AND b.value < 30 "
            "WITHIN 15 MINUTES",
            "--stream", f"Q={tmp_path}/Q.csv",
            "--stream", f"V={tmp_path}/V.csv",
            "--engine", "both", "--show", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "engines agree: True" in out

    def test_run_with_o1_flag(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path), "--segments", "2",
              "--minutes", "60"])
        rc = main([
            "run", "-p", "PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES", "--o1",
            "--stream", f"Q={tmp_path}/Q.csv",
            "--stream", f"V={tmp_path}/V.csv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FASP-O1" in out

    def test_advise(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path), "--segments", "2",
              "--minutes", "120", "--air-quality"])
        rc = main([
            "advise", "-p",
            "PATTERN SEQ(PM10 a, Q b) WHERE a.id = b.id WITHIN 30 MINUTES",
            "--stream", f"PM10={tmp_path}/PM10.csv",
            "--stream", f"Q={tmp_path}/Q.csv",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recommended configuration" in out

    def test_missing_pattern_errors(self, capsys):
        rc = main(["explain"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_stream_spec_errors(self, capsys):
        rc = main([
            "run", "-p", "PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES",
            "--stream", "no-equals-sign",
        ])
        assert rc == 2

    def test_pattern_file(self, tmp_path, capsys):
        pattern_file = tmp_path / "p.sase"
        pattern_file.write_text("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        rc = main(["explain", "--pattern-file", str(pattern_file)])
        assert rc == 0

    def test_fcep_rejects_or_gracefully(self, tmp_path, capsys):
        main(["generate", "--out", str(tmp_path), "--segments", "1",
              "--minutes", "30"])
        rc = main([
            "run", "-p", "PATTERN OR(Q a, V b) WITHIN 5 MINUTES",
            "--stream", f"Q={tmp_path}/Q.csv",
            "--stream", f"V={tmp_path}/V.csv",
            "--engine", "fcep",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "unsupported" in out


class TestCliBench:
    def test_bench_subcommand(self, capsys):
        rc = main(["bench", "fig3a", "--events", "2000", "--sensors", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SEQ1" in out and "speedups vs FCEP" in out

    def test_bench_unknown_experiment(self, capsys):
        rc = main(["bench", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

"""Observability layer: metric primitives, per-operator telemetry, run
reports, and the sharded-vs-serial roll-up guarantee.

Covers the PR's acceptance criteria: histogram percentile math (bucket
edges, empty histograms), metrics JSON round-trips, and per-shard +
merged views consistent with serial totals on a keyed pattern.
"""

import json
import random

import pytest

from repro.asp.datamodel import Event
from repro.asp.runtime import run_dataflow
from repro.asp.graph import clone_dataflow, linear_pipeline
from repro.asp.operators.filter import FilterOperator
from repro.asp.operators.sink import CollectSink
from repro.asp.operators.source import ListSource
from repro.asp.runtime import ShardedBackend
from repro.asp.runtime.observability import (
    LATENCY_SAMPLE_SHIFT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_report,
    merge_metric_trees,
    render_metrics_summary,
    run_report,
    summarize_metric,
    write_metrics_json,
)
from repro.asp.time import minutes
from repro.cli import main
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern

MIN = minutes(1)


class TestHistogram:
    """Satellite: percentile math over fixed buckets."""

    def test_empty_histogram_reports_zeroes(self):
        h = Histogram(bounds=(0.001, 0.01, 0.1))
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.percentile(99) == 0.0
        d = h.to_dict()
        assert d["count"] == 0 and d["min"] == 0.0 and d["max"] == 0.0

    def test_single_observation_is_exact(self):
        h = Histogram(bounds=(0.001, 0.01, 0.1))
        h.observe(0.003)
        # Interpolation is clamped to [min, max], so one sample is exact.
        assert h.percentile(50) == pytest.approx(0.003)
        assert h.percentile(99) == pytest.approx(0.003)
        assert h.mean == pytest.approx(0.003)

    def test_bucket_edge_lands_in_lower_bucket(self):
        h = Histogram(bounds=(1.0, 2.0, 5.0))
        h.observe(1.0)  # inclusive upper edge
        assert h.counts[0] == 1
        h.observe(1.0000001)
        assert h.counts[1] == 1

    def test_overflow_bucket_uses_observed_max(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.counts[-1] == 1
        assert h.percentile(99) == pytest.approx(100.0)

    def test_percentiles_are_monotone_and_bounded(self):
        rng = random.Random(7)
        h = Histogram()
        values = [rng.uniform(1e-6, 2.0) for _ in range(500)]
        for v in values:
            h.observe(v)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert min(values) <= p50 <= p95 <= p99 <= max(values)

    def test_uniform_distribution_p50_accuracy(self):
        h = Histogram()
        for i in range(1, 1001):
            h.observe(i / 1000.0)  # uniform over (0, 1]
        assert h.percentile(50) == pytest.approx(0.5, rel=0.05)
        assert h.percentile(100) == pytest.approx(1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))


class TestMergeTrees:
    """Satellite: shard roll-up semantics of every metric type."""

    def test_counters_add(self):
        merged = merge_metric_trees(
            [{"a": Counter(3).to_dict()}, {"a": Counter(4).to_dict()}]
        )
        assert merged["a"]["value"] == 7

    def test_gauge_aggregations(self):
        for agg, expected in (("sum", 7), ("max", 4), ("min", 3), ("last", 4)):
            merged = merge_metric_trees(
                [{"g": Gauge(3, agg=agg).to_dict()}, {"g": Gauge(4, agg=agg).to_dict()}]
            )
            assert merged["g"]["value"] == expected, agg

    def test_histograms_merge_bucket_wise(self):
        a, b = Histogram(bounds=(1.0, 2.0)), Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(3.0)
        merged = merge_metric_trees([{"h": a.to_dict()}, {"h": b.to_dict()}])["h"]
        assert merged["count"] == 3
        assert merged["counts"] == [1, 1, 1]
        assert merged["min"] == 0.5 and merged["max"] == 3.0
        summary = summarize_metric(merged)
        assert summary["count"] == 3
        assert 0.5 <= summary["p50"] <= 3.0

    def test_histogram_bound_mismatch_rejected(self):
        a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(2.0,))
        a.observe(0.5)
        b.observe(0.5)
        with pytest.raises(ValueError, match="bounds"):
            merge_metric_trees([{"h": a.to_dict()}, {"h": b.to_dict()}])

    def test_annotations_and_missing_scopes(self):
        merged = merge_metric_trees(
            [
                {"op": {"kind": "filter", "n": Counter(1).to_dict()}},
                {"op": {"kind": "filter", "n": Counter(2).to_dict()}},
                {"other": {"kind": "sink"}},
            ]
        )
        assert merged["op"]["kind"] == "filter"
        assert merged["op"]["n"]["value"] == 3
        assert merged["other"]["kind"] == "sink"

    def test_empty_histogram_merge_keeps_min_max_clean(self):
        a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(1.0,))
        b.observe(0.25)
        merged = merge_metric_trees([{"h": a.to_dict()}, {"h": b.to_dict()}])["h"]
        assert merged["min"] == 0.25 and merged["max"] == 0.25


class TestRegistryRoundTrip:
    """Satellite: metrics JSON round-trip."""

    def test_registry_tree_survives_json(self):
        registry = MetricsRegistry()
        scope = registry.scope("join#3")
        scope.counter("events_in").inc(42)
        scope.gauge("state_bytes", agg="sum").set(1024)
        scope.histogram("latency_s", bounds=(0.001, 0.01)).observe(0.002)
        tree = registry.to_dict()
        restored = json.loads(json.dumps(tree))
        assert restored == tree
        assert merge_metric_trees([restored, restored])["join#3"]["events_in"][
            "value"
        ] == 84

    def test_scope_reuse_returns_same_metrics(self):
        registry = MetricsRegistry()
        registry.scope("op").counter("n").inc()
        registry.scope("op").counter("n").inc()
        assert registry.to_dict()["op"]["n"]["value"] == 2
        assert registry.scopes() == ["op"]


def _events(n=60, ids=(1, 2, 3, 4, 5), seed=13):
    rng = random.Random(seed)
    return [
        Event(
            rng.choice(("Q", "V")),
            ts=i * MIN,
            id=rng.choice(ids),
            value=round(rng.uniform(0, 100), 3),
        )
        for i in range(n)
    ]


def _sources(events):
    by_type = {}
    for e in events:
        by_type.setdefault(e.event_type, []).append(e)
    return {
        t: ListSource(lst, name=f"src[{t}]", event_type=t)
        for t, lst in by_type.items()
    }


KEYED = "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 7 MINUTES SLIDE 1 MINUTE"


class TestSerialRunMetrics:
    def test_per_operator_metrics_on_simple_pipeline(self):
        events = [Event("Q", ts=i * MIN, id=i % 3, value=float(i)) for i in range(40)]
        flow = linear_pipeline(
            ListSource(events, name="s"),
            [FilterOperator(lambda e: e.value >= 10), CollectSink()],
        )
        result = run_dataflow(flow)
        report = run_report(result)
        ops = report["operators"]
        filter_scope = next(s for s in ops if s.startswith("filter"))
        sink_scope = next(s for s in ops if "sink" in s)
        assert ops[filter_scope]["events_in"] == 40
        assert ops[filter_scope]["events_out"] == 30
        assert ops[filter_scope]["selectivity"] == pytest.approx(0.75)
        # Latency is stride-sampled on the hot path: one observation per
        # 1 << LATENCY_SAMPLE_SHIFT events; event counts stay exact.
        assert ops[filter_scope]["latency_s"]["count"] == 40 >> LATENCY_SAMPLE_SHIFT
        assert ops[filter_scope]["latency_s"]["p50"] > 0
        assert ops[sink_scope]["events_in"] == 30
        assert ops[sink_scope]["items_accepted"] == 30

    def test_join_metrics_include_state_and_pairs(self):
        pattern = parse_pattern(KEYED)
        query = translate(pattern, _sources(_events()), TranslationOptions.o3())
        result = query.execute()
        report = run_report(result)
        join_scope = next(s for s in report["operators"] if "join" in s)
        join = report["operators"][join_scope]
        assert join["pairs_tested"] >= join["pairs_emitted"]
        assert join["state_peak_bytes"] > 0
        assert join["watermark_calls"] > 0
        # The join holds outputs back by its window size.
        assert join["watermark_lag_ms"] == 0  # lag applies downstream
        sink_scope = next(s for s in report["operators"] if "sink" in s)
        assert report["operators"][sink_scope]["watermark_lag_ms"] == minutes(7)

    def test_short_run_still_records_a_sample(self):
        """Satellite fix: Instrumentation.finish records the closing
        sample, so runs shorter than sample_every have Figure-5 data."""
        events = [Event("Q", ts=i * MIN, id=1) for i in range(5)]
        flow = linear_pipeline(ListSource(events, name="s"), [CollectSink()])
        result = run_dataflow(flow, sample_every=1000)
        assert result.samples
        assert result.samples[-1]["events_in"] == 5

    def test_cadence_coinciding_with_end_is_not_duplicated(self):
        events = [Event("Q", ts=i * MIN, id=1) for i in range(20)]
        flow = linear_pipeline(ListSource(events, name="s"), [CollectSink()])
        result = run_dataflow(flow, sample_every=10)
        counts = [s["events_in"] for s in result.samples]
        assert counts == [10, 20]  # no duplicate closing sample at 20


class TestShardedRollup:
    """Acceptance: per-shard + merged views consistent with serial."""

    @pytest.mark.parametrize("shards", (2, 4))
    def test_merged_metrics_equal_serial_totals(self, shards):
        pattern = parse_pattern(KEYED)
        events = _events(n=80)

        serial_query = translate(pattern, _sources(events), TranslationOptions.o3())
        serial_result = serial_query.execute()
        sharded_query = translate(pattern, _sources(events), TranslationOptions.o3())
        sharded_result = sharded_query.execute(
            backend=ShardedBackend(shards=shards)
        )

        serial_ops = run_report(serial_result)["operators"]
        sharded_report = run_report(sharded_result)
        sharded_ops = sharded_report["operators"]
        assert set(serial_ops) == set(sharded_ops)
        for scope, serial_op in serial_ops.items():
            merged_op = sharded_ops[scope]
            assert merged_op["events_in"] == serial_op["events_in"], scope
            assert merged_op["events_out"] == serial_op["events_out"], scope
            assert merged_op["selectivity"] == pytest.approx(
                serial_op["selectivity"]
            ), scope
            # Stride sampling floors per shard, so the merged sample
            # count may trail the serial one by at most shards - 1.
            serial_count = serial_op["latency_s"]["count"]
            merged_count = merged_op["latency_s"]["count"]
            assert serial_count - (shards - 1) <= merged_count <= serial_count
            for extra in ("pairs_tested", "pairs_emitted", "items_accepted"):
                if extra in serial_op:
                    assert merged_op[extra] == serial_op[extra], (scope, extra)

        views = sharded_report["shards"]
        assert len(views) == shards
        for scope in serial_ops:
            per_shard = [v["operators"][scope]["events_in"] for v in views]
            assert sum(per_shard) == sharded_ops[scope]["events_in"], scope

    def test_raw_typed_trees_merge_in_result(self):
        pattern = parse_pattern(KEYED)
        query = translate(pattern, _sources(_events()), TranslationOptions.o3())
        result = query.execute(backend=ShardedBackend(shards=2))
        # "analysis" is the static pre-flight summary translate() attaches;
        # "plan" records which logical plan (and fired rewrite rules)
        # produced this run, so profile-fed replanning can trust reports.
        assert set(result.metrics) == {"operators", "shards", "analysis", "plan"}
        assert result.metrics["analysis"]["ok"] is True
        assert result.metrics["plan"]["pattern"] == pattern.name
        tree = result.metrics["operators"]
        scope = next(iter(tree))
        assert tree[scope]["events_in"]["type"] == "counter"
        assert tree[scope]["latency_s"]["type"] == "histogram"


class TestReportAndCli:
    def test_report_round_trip_and_render(self, tmp_path):
        events = [Event("Q", ts=i * MIN, id=1, value=float(i)) for i in range(25)]
        flow = linear_pipeline(
            ListSource(events, name="s"),
            [FilterOperator(lambda e: True), CollectSink()],
        )
        flow2 = clone_dataflow(flow)
        result = run_dataflow(flow2)
        path = tmp_path / "metrics.json"
        written = write_metrics_json(result, path)
        loaded = load_report(path)
        assert loaded == written
        assert loaded["job"]["sink_items"] == 25
        rendered = render_metrics_summary(loaded)
        assert "filter" in rendered
        assert "events_in=25" in rendered
        assert "out=25" in rendered  # sink-accepted items, not items_out=0

    def test_load_report_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    @pytest.fixture()
    def data_dir(self, tmp_path):
        rc = main(
            ["generate", "--out", str(tmp_path), "--segments", "2", "--minutes", "90"]
        )
        assert rc == 0
        return tmp_path

    @pytest.mark.parametrize("backend_args", ([], ["--backend", "sharded", "--shards", "2"]))
    def test_cli_metrics_json_and_summary(self, data_dir, tmp_path, capsys, backend_args):
        report_path = tmp_path / "out.json"
        rc = main(
            [
                "run",
                "-p",
                "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES",
                "--o3",
                "id",
                "--stream",
                f"Q={data_dir}/Q.csv",
                "--stream",
                f"V={data_dir}/V.csv",
                "--metrics-json",
                str(report_path),
            ]
            + backend_args
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "metrics report" in out
        report = load_report(report_path)
        assert report["operators"]
        assert report["job"]["sink_items"] > 0
        for op in report["operators"].values():
            assert {"events_in", "events_out", "selectivity", "latency_s"} <= set(op)
        if backend_args:
            assert report["job"]["backend"] == "sharded"
            assert len(report["shards"]) == 2

        rc = main(["metrics", str(report_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "p95" in out and "operator" in out

        rc = main(["metrics", str(report_path), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["schema"] == "repro.metrics/v1"

    def test_cli_metrics_rejects_missing_file(self, tmp_path, capsys):
        rc = main(["metrics", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


def _load_gate():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "tools" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(throughputs, matches=100, events=4000):
    return {
        "schema": "repro.bench-summary/v1",
        "experiments": {
            "fig3a": {
                "events": events,
                "cells": {
                    key: {
                        "throughput_tps": tps,
                        "matches": matches,
                        "events_in": events,
                        "failed": False,
                    }
                    for key, tps in throughputs.items()
                },
            }
        },
    }


class TestBenchRegressionGate:
    """Satellite: the CI gate normalizes out machine-speed shifts but
    catches per-cell regressions and correctness mismatches."""

    CELLS = {"SEQ1|FCEP|baseline": 100.0, "SEQ1|FASP|baseline": 200.0,
             "ITER3|FASP-O2|baseline": 400.0}

    def _run(self, tmp_path, current, baseline, *extra):
        gate = _load_gate()
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "summary.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        return gate.main([str(cur_path), "--baseline", str(base_path), *extra])

    def test_identical_summaries_pass(self, tmp_path, capsys):
        assert self._run(tmp_path, _summary(self.CELLS), _summary(self.CELLS)) == 0
        assert "OK" in capsys.readouterr().out

    def test_uniform_machine_slowdown_passes_with_warning(self, tmp_path, capsys):
        slower = _summary({k: v / 2 for k, v in self.CELLS.items()})
        assert self._run(tmp_path, slower, _summary(self.CELLS)) == 0
        assert "uniform throughput shift" in capsys.readouterr().out

    def test_uniform_slowdown_fails_in_absolute_mode(self, tmp_path, capsys):
        slower = _summary({k: v / 2 for k, v in self.CELLS.items()})
        rc = self._run(tmp_path, slower, _summary(self.CELLS), "--absolute")
        assert rc == 1

    def test_single_cell_regression_breaches(self, tmp_path, capsys):
        current = dict(self.CELLS)
        current["ITER3|FASP-O2|baseline"] /= 2  # one optimization regressed
        rc = self._run(tmp_path, _summary(current), _summary(self.CELLS))
        assert rc == 1
        assert "FASP-O2" in capsys.readouterr().out

    def test_match_count_mismatch_is_correctness_breach(self, tmp_path, capsys):
        rc = self._run(
            tmp_path, _summary(self.CELLS, matches=99), _summary(self.CELLS)
        )
        assert rc == 1
        assert "correctness regression" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "variant, ratio, events, breached",
        [
            ("SEQ1|FASP-O1+batched|headline", 9.0, 20_000, False),
            # Row batches without the column masks reach ~4x: trips the 8x floor.
            ("SEQ1|FASP-O1+batched|headline", 4.0, 20_000, True),
            ("SEQ1|FASP-O1+batched|headline", 4.0, 4_000, False),  # smoke: parity
            ("NSEQ1|FASP+batched|baseline", 0.9, 20_000, False),  # unlisted: parity
            ("NSEQ1|FASP+batched|baseline", 0.6, 20_000, True),
            ("SEQ-wide|FASP+opt|static", 1.5, 20_000, True),
            ("tenant-group|serve+shared|tenants=8", 1.4, 4_000, True),
        ],
    )
    def test_sibling_floor_table(self, tmp_path, capsys, variant, ratio, events, breached):
        pattern, approach, parameter = variant.split("|")
        sibling = f"{pattern}|{approach.rsplit('+', 1)[0]}|{parameter}"
        summary = _summary({sibling: 100.0, variant: 100.0 * ratio}, events=events)
        assert self._run(tmp_path, summary, summary) == int(breached)
        assert ("floor" in capsys.readouterr().out) == breached

    def test_update_reblesses_baseline(self, tmp_path, capsys):
        gate = _load_gate()
        cur_path = tmp_path / "summary.json"
        base_path = tmp_path / "baseline.json"
        cur_path.write_text(json.dumps(_summary(self.CELLS)))
        rc = gate.main(
            [str(cur_path), "--baseline", str(base_path), "--update"]
        )
        assert rc == 0
        assert json.loads(base_path.read_text()) == _summary(self.CELLS)

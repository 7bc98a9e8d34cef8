"""Tests for the static plan verifier (``repro.analysis``).

One targeted negative test per diagnostic code proves the code fires on
a crafted bad input; the framework tests pin the diagnostic/report API;
the pre-flight tests prove ``translate()`` rejects statically unsafe
plans before execution (and that ``analyze=False`` opts out).
"""

import dataclasses
import json
import math

import pytest

from repro.analysis import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze_query,
    callable_diagnostics,
    error,
    merge_reports,
    pattern_diagnostics,
    scan_schema,
    shardability_diagnostics,
    warning,
)
from repro.analysis.partition import derived_keys, plan_partition_diagnostics
from repro.analysis.purity import flow_purity_diagnostics
from repro.analysis.schema import schema_diagnostics
from repro.analysis.state import flow_state_diagnostics, plan_state_diagnostics
from repro.analysis.structure import structural_diagnostics
from repro.analysis.timing import flow_time_diagnostics, plan_time_diagnostics
from repro.asp.datamodel import Event, Schema, TypeRegistry
from repro.asp.graph import Dataflow, linear_pipeline
from repro.asp.operators.base import Operator, StatefulOperator
from repro.asp.operators.filter import FilterOperator
from repro.asp.operators.source import ListSource
from repro.asp.operators.union import UnionOperator
from repro.asp.runtime import ShardedBackend
from repro.asp.time import minutes
from repro.errors import (
    ExecutionError,
    ShardabilityError,
    StaticAnalysisError,
    TranslationError,
)
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.ir import WindowJoin, WindowStrategy
from repro.mapping.optimizer import build_plan
from repro.mapping.translator import translate
from repro.sea.ast import Pattern, ReturnClause, nseq, ref, seq
from repro.sea.parser import parse_pattern

MIN = minutes(1)

SEQ_KEYED = "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 5 MINUTES SLIDE 1 MINUTE"
SEQ_UNKEYED = "PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE"


def make_events(n=12, types=("Q", "V")):
    return [
        Event(types[i % len(types)], ts=i * MIN, id=i % 2, value=float(i))
        for i in range(n)
    ]


def sources_for(events, types=("Q", "V")):
    return {
        t: ListSource(
            [e for e in events if e.event_type == t], name=t, event_type=t
        )
        for t in types
    }


def empty_sources(types=("Q", "V", "W")):
    return {t: ListSource([], name=t, event_type=t) for t in types}


def sensor_registry(*names):
    registry = TypeRegistry()
    for name in names:
        registry.declare(name)
    return registry


def codes_of(diagnostics):
    return {d.code for d in diagnostics}


# -- diagnostic / report framework --------------------------------------------


class TestDiagnosticFramework:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic("RA999", Severity.ERROR, "nope")

    def test_every_registered_code_has_prefix_and_title(self):
        for code, title in CODES.items():
            assert code.startswith("RA") and len(code) == 5
            assert title

    def test_render_carries_code_and_location(self):
        diag = error("RA101", "bad ref", "join[a,b]")
        text = diag.render()
        assert "RA101" in text and "join[a,b]" in text and "error" in text

    def test_report_partitions_by_severity(self):
        report = AnalysisReport(
            target="p",
            diagnostics=(error("RA101", "x"), warning("RA303", "y")),
        )
        assert len(report) == 2
        assert [d.code for d in report.errors] == ["RA101"]
        assert [d.code for d in report.warnings] == ["RA303"]
        assert not report.ok()
        summary = report.summary()
        assert summary["ok"] is False
        assert summary["errors"] == 1 and summary["warnings"] == 1
        assert summary["codes"] == {"RA101": 1, "RA303": 1}

    def test_raise_for_errors(self):
        report = AnalysisReport(target="p", diagnostics=(error("RA101", "x"),))
        with pytest.raises(StaticAnalysisError) as excinfo:
            report.raise_for_errors()
        assert excinfo.value.diagnostics[0].code == "RA101"
        # warnings alone never raise
        AnalysisReport(
            target="p", diagnostics=(warning("RA303", "y"),)
        ).raise_for_errors()

    def test_static_analysis_error_is_translation_error(self):
        assert issubclass(StaticAnalysisError, TranslationError)
        assert issubclass(ShardabilityError, ExecutionError)

    def test_merge_and_json_round_trip(self):
        merged = merge_reports(
            "both",
            [
                AnalysisReport(target="a", diagnostics=(warning("RA303", "y"),)),
                AnalysisReport(target="b", diagnostics=(error("RA101", "x"),)),
            ],
        )
        assert len(merged) == 2
        payload = json.dumps(merged.as_dict())
        assert "RA101" in payload and "RA303" in payload


# -- RA0xx structure ----------------------------------------------------------


class TestStructureCodes:
    def test_ra001_no_sources_and_ra002_no_sinks(self):
        flow = Dataflow(name="empty")
        diags = structural_diagnostics(flow)
        assert {"RA001", "RA002"} <= codes_of(diags)

    def test_ra003_cycle(self):
        flow = Dataflow(name="loop")
        src = flow.add_source(ListSource([], name="s", event_type="Q"))
        a = flow.add_operator(FilterOperator(lambda e: True, name="a"))
        b = flow.add_operator(FilterOperator(lambda e: True, name="b"))
        flow.connect(src, a)
        flow.connect(a, b)
        flow.connect(b, a)
        assert "RA003" in codes_of(structural_diagnostics(flow))

    def test_ra004_missing_join_port(self):
        flow = Dataflow(name="halfjoin")
        src = flow.add_source(ListSource([], name="s", event_type="Q"))
        union = flow.add_operator(UnionOperator(2))
        flow.connect(src, union, port=0)  # port 1 never connected
        diags = structural_diagnostics(flow, require_sinks=False)
        assert "RA004" in codes_of(diags)
        assert any("missing inputs" in d.message for d in diags)


# -- RA01x pattern well-formedness --------------------------------------------


class TestPatternCodes:
    def test_ra011_duplicate_alias(self):
        from repro.asp.operators.window import WindowSpec

        # parse_pattern validates eagerly, so build the bad AST directly
        pattern = Pattern(
            seq(ref("Q", "x"), ref("V", "x")),
            window=WindowSpec(size=minutes(5), slide=minutes(1)),
        )
        assert "RA011" in codes_of(pattern_diagnostics(pattern))

    def test_ra012_unknown_type(self):
        pattern = parse_pattern("PATTERN SEQ(Q a, NOPE b) WITHIN 5 MINUTES")
        diags = pattern_diagnostics(pattern, registry=sensor_registry("Q", "V"))
        assert "RA012" in codes_of(diags)

    def test_ra013_unbound_where_alias(self):
        from repro.asp.operators.window import WindowSpec
        from repro.sea.predicates import Attr, Compare, Const

        pattern = Pattern(
            seq(ref("Q", "a"), ref("V", "b")),
            where=Compare(">", Attr("zz", "value"), Const(3)),
            window=WindowSpec(size=minutes(5), slide=minutes(1)),
        )
        assert "RA013" in codes_of(pattern_diagnostics(pattern))

    def test_ra014_nested_or_operand(self):
        from repro.sea.ast import Disjunction
        from repro.asp.operators.window import WindowSpec

        bad = Pattern(
            Disjunction((ref("Q", "a"), seq(ref("V", "b"), ref("W", "c")))),
            window=WindowSpec(size=minutes(5), slide=minutes(1)),
        )
        assert "RA014" in codes_of(pattern_diagnostics(bad))

    def test_ra015_nseq_operand_not_a_ref(self):
        from repro.asp.operators.window import WindowSpec

        node = nseq(ref("Q", "a"), ref("W", "x"), ref("V", "b"))
        # No parser production yields this shape; force it to prove the
        # analyzer guards the invariant rather than trusting the parser.
        object.__setattr__(node, "first", seq(ref("Q", "a"), ref("V", "c")))
        bad = Pattern(node, window=WindowSpec(size=minutes(5), slide=minutes(1)))
        assert "RA015" in codes_of(pattern_diagnostics(bad))


# -- RA1xx schema -------------------------------------------------------------


class TestSchemaCodes:
    def test_ra101_bad_field_ref_closed_registry(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.bogus = b.id WITHIN 5 MINUTES"
        )
        registry = sensor_registry("Q", "V")
        plan = build_plan(pattern, TranslationOptions(), registry=registry)
        diags = schema_diagnostics(plan, pattern, registry, empty_sources())
        hits = [d for d in diags if d.code == "RA101"]
        assert hits and all(d.is_error for d in hits)
        assert "bogus" in hits[0].message

    def test_ra101_open_schema_demotes_to_warning(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.bogus = b.id WITHIN 5 MINUTES"
        )
        plan = build_plan(pattern, TranslationOptions())
        diags = schema_diagnostics(plan, pattern, None, None)
        hits = [d for d in diags if d.code == "RA101"]
        assert hits and all(not d.is_error for d in hits)

    def test_ra101_inferred_from_source_sample(self):
        events = [Event("Q", ts=i * MIN, value=1.0) for i in range(4)]
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.nothere > 1 WITHIN 5 MINUTES"
        )
        plan = build_plan(pattern, TranslationOptions())
        # Q gets a closed sampled schema -> error; V stays open.
        diags = schema_diagnostics(
            plan, pattern, None, sources_for(events, types=("Q", "V"))
        )
        hits = [d for d in diags if d.code == "RA101"]
        assert hits and any(d.is_error for d in hits)

    def test_ra102_union_incompatible_registry(self):
        registry = TypeRegistry()
        registry.declare("Q")  # sensor schema (5 attributes)
        registry.declare("V", Schema.of("x", "y"))
        pattern = parse_pattern("PATTERN OR(Q a, V b) WITHIN 5 MINUTES")
        plan = build_plan(pattern, TranslationOptions())
        diags = schema_diagnostics(plan, pattern, registry, None)
        hits = [d for d in diags if d.code == "RA102"]
        assert hits and hits[0].is_error
        assert "union compatible" in hits[0].message

    def test_ra103_bad_return_attribute(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES RETURN a.bogus, b.value"
        )
        registry = sensor_registry("Q", "V")
        plan = build_plan(pattern, TranslationOptions(), registry=registry)
        diags = schema_diagnostics(plan, pattern, registry, None)
        hits = [d for d in diags if d.code == "RA103"]
        assert hits and hits[0].is_error and "bogus" in hits[0].message

    def test_ra103_malformed_return_entry(self):
        from repro.asp.operators.window import WindowSpec

        pattern = Pattern(
            seq(ref("Q", "a"), ref("V", "b")),
            window=WindowSpec(size=minutes(5), slide=minutes(1)),
            returns=ReturnClause(("a",)),  # no attribute
        )
        plan = build_plan(pattern, TranslationOptions())
        diags = schema_diagnostics(plan, pattern, None, None)
        assert any(d.code == "RA103" and d.is_error for d in diags)

    def test_scan_schema_prefers_registry(self):
        info = scan_schema("Q", sensor_registry("Q"), None)
        assert info.closed and info.resolves("value") and not info.resolves("bogus")
        open_info = scan_schema("Q", None, None)
        assert not open_info.closed


# -- RA2xx time ---------------------------------------------------------------


def sliding_join_plan(text=SEQ_UNKEYED, options=None):
    plan = build_plan(parse_pattern(text), options or TranslationOptions())
    assert isinstance(plan.root, WindowJoin)
    return plan


class TestTimeCodes:
    def test_ra201_nonpositive_and_oversized_slide(self):
        plan = sliding_join_plan()
        bad_root = dataclasses.replace(plan.root, window_slide=0)
        diags = plan_time_diagnostics(dataclasses.replace(plan, root=bad_root))
        assert any(d.code == "RA201" and "positive" in d.message for d in diags)
        drop_root = dataclasses.replace(
            plan.root, window_slide=plan.root.window_size * 2
        )
        diags = plan_time_diagnostics(dataclasses.replace(plan, root=drop_root))
        assert any(d.code == "RA201" and "drop events" in d.message for d in diags)

    def test_ra202_empty_interval_bounds(self):
        plan = sliding_join_plan(options=TranslationOptions.o1())
        assert plan.root.strategy is WindowStrategy.INTERVAL
        bad_root = dataclasses.replace(plan.root, window_size=0)
        diags = plan_time_diagnostics(dataclasses.replace(plan, root=bad_root))
        assert any(d.code == "RA202" and d.is_error for d in diags)

    def test_ra203_theorem2_slide_vs_gap(self):
        plan = sliding_join_plan()  # slide = 1 minute
        diags = plan_time_diagnostics(plan, min_inter_event_gap=1000)
        assert any(d.code == "RA203" and "Theorem 2" in d.message for d in diags)
        assert not plan_time_diagnostics(plan, min_inter_event_gap=minutes(1))

    def test_ra204_out_of_orderness_reaches_state_horizon(self):
        query = translate(parse_pattern(SEQ_UNKEYED), empty_sources())
        diags = flow_time_diagnostics(query.env.flow, max_out_of_orderness=minutes(10))
        hits = [d for d in diags if d.code == "RA204"]
        assert hits and all(not d.is_error for d in hits)
        assert not flow_time_diagnostics(query.env.flow, max_out_of_orderness=0)

    def test_ra205_asymmetric_union_delays(self):
        class Delayed(Operator):
            def watermark_delay(self):
                return minutes(2)

            def process_batch(self, items, port=0):
                return items

        flow = Dataflow(name="asym")
        fast = flow.add_source(ListSource([], name="fast", event_type="Q"))
        slow = flow.add_source(ListSource([], name="slow", event_type="V"))
        lag = flow.add_operator(Delayed(name="lag"))
        union = flow.add_operator(UnionOperator(2))
        flow.connect(slow, lag)
        flow.connect(lag, union, port=0)
        flow.connect(fast, union, port=1)
        diags = flow_time_diagnostics(flow)
        hits = [d for d in diags if d.code == "RA205"]
        assert hits and "asymmetric" in hits[0].message


# -- RA3xx state --------------------------------------------------------------


class TestStateCodes:
    def test_ra301_stateful_without_horizon(self):
        class Hoarder(StatefulOperator):
            def process_batch(self, items, port=0):
                return []

        flow = linear_pipeline(
            ListSource([], name="s", event_type="Q"), [Hoarder(name="hoarder")]
        )
        diags = flow_state_diagnostics(flow)
        assert any(
            d.code == "RA301" and d.is_error and "hoarder" in d.message
            for d in diags
        )

    def test_ra301_clean_on_translated_flows(self):
        query = translate(parse_pattern(SEQ_KEYED), empty_sources())
        assert not flow_state_diagnostics(query.env.flow)

    def test_ra302_wide_iteration_under_join_strategy(self):
        pattern = parse_pattern("PATTERN ITER4(V v) WITHIN 5 MINUTES")
        plan = build_plan(pattern, TranslationOptions())
        diags = plan_state_diagnostics(plan, pattern, "join")
        hits = [d for d in diags if d.code == "RA302"]
        assert hits and not hits[0].is_error and "O2" in hits[0].message
        # O2 makes the warning moot
        assert not [
            d
            for d in plan_state_diagnostics(plan, pattern, "aggregate")
            if d.code == "RA302"
        ]

    def test_ra304_approximate_count_flags_exact_alternative(self):
        pattern = parse_pattern("PATTERN ITER3(V v) WITHIN 10 MINUTES SLIDE 5 MINUTES")
        plan = build_plan(pattern, TranslationOptions(iteration_strategy="aggregate"))
        diags = plan_state_diagnostics(plan, pattern, "aggregate")
        hits = [d for d in diags if d.code == "RA304"]
        assert hits and not hits[0].is_error
        assert "iteration_strategy='exact'" in hits[0].message
        # The exact mapping itself is clean: no approximate output to flag.
        exact = build_plan(pattern, TranslationOptions(iteration_strategy="exact"))
        assert not [
            d
            for d in plan_state_diagnostics(exact, pattern, "exact")
            if d.code == "RA304"
        ]

    def test_ra303_many_concurrent_panes(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 30 MINUTES SLIDE 1 MINUTE"
        )
        plan = build_plan(pattern, TranslationOptions())
        panes = math.ceil(plan.root.window_size / plan.root.window_slide)
        assert panes >= 30
        diags = plan_state_diagnostics(plan, pattern, "join")
        hits = [d for d in diags if d.code == "RA303"]
        assert hits and not hits[0].is_error


# -- RA4xx partition safety ---------------------------------------------------


class TestPartitionCodes:
    def test_ra401_unkeyed_flow_not_shardable(self):
        query = translate(parse_pattern(SEQ_UNKEYED), empty_sources())
        diags = shardability_diagnostics(query.env.flow)
        assert [d.code for d in diags] == ["RA401"]
        assert "key-parallel" in diags[0].message

    def test_ra401_keyed_o3_flow_is_shardable(self):
        query = translate(
            parse_pattern(SEQ_KEYED), empty_sources(), TranslationOptions.o3("id")
        )
        assert not shardability_diagnostics(query.env.flow)

    def test_ra402_partition_attribute_missing_from_closed_schema(self):
        pattern = parse_pattern(SEQ_KEYED)
        plan = build_plan(pattern, TranslationOptions.o3("plume"))
        diags = plan_partition_diagnostics(
            plan, "plume", sensor_registry("Q", "V"), None
        )
        hits = [d for d in diags if d.code == "RA402"]
        assert hits and all(d.is_error for d in hits)
        # open schema: cannot prove, stays silent
        assert not plan_partition_diagnostics(plan, "plume", None, None)

    def test_ra403_sharding_without_any_key(self):
        pattern = parse_pattern(SEQ_UNKEYED)
        plan = build_plan(pattern, TranslationOptions())
        assert not derived_keys(plan)
        diags = plan_partition_diagnostics(plan, None, None, None, prove_shardable=True)
        assert any(d.code == "RA403" and d.is_error for d in diags)
        # keyed plan derives its key set from the equi-predicate
        keyed = build_plan(parse_pattern(SEQ_KEYED), TranslationOptions())
        assert derived_keys(keyed)
        assert not plan_partition_diagnostics(keyed, None, None, None, prove_shardable=True)

    def test_sharded_backend_raises_structured_diagnostic(self):
        events = make_events()
        query = translate(parse_pattern(SEQ_UNKEYED), sources_for(events))
        with pytest.raises(ShardabilityError) as excinfo:
            query.execute(backend=ShardedBackend(shards=2))
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostics[0].code == "RA401"
        assert "key-parallel" in str(excinfo.value)


# -- RA5xx purity -------------------------------------------------------------


class TestPurityCodes:
    def test_ra501_nondeterministic_udf(self):
        import random

        fn = lambda e: e["value"] > random.random()
        diags = callable_diagnostics(fn, "filter.predicate")
        assert any(d.code == "RA501" and d.is_error for d in diags)

    def test_ra502_io_udf(self):
        fn = lambda e: print(e) is None
        diags = callable_diagnostics(fn, "filter.predicate")
        assert any(d.code == "RA502" and d.is_error for d in diags)

    def test_ra503_mutates_closure(self):
        seen = []
        fn = lambda e: seen.append(e) is None
        diags = callable_diagnostics(fn, "filter.predicate")
        assert any(
            d.code == "RA503" and "seen" in d.message and d.is_error for d in diags
        )

    def test_ra503_global_statement(self):
        def impure(event):
            global _counter  # noqa: PLW0603
            _counter = event
            return True

        diags = callable_diagnostics(impure, "filter.predicate")
        assert any(d.code == "RA503" and "global" in d.message for d in diags)

    def test_ra504_unrecoverable_source(self):
        import math as math_module

        diags = callable_diagnostics(math_module.sqrt, "map.fn")
        assert [d.code for d in diags] == ["RA504"]
        assert not diags[0].is_error

    def test_builtins_are_trusted(self):
        assert callable_diagnostics(len, "map.fn") == []

    def test_pure_lambda_is_clean(self):
        threshold = 30.0
        fn = lambda e: e["value"] < threshold
        assert callable_diagnostics(fn, "filter.predicate") == []

    def test_flow_level_lint_reaches_operator_predicates(self):
        import random

        flow = linear_pipeline(
            ListSource([], name="s", event_type="Q"),
            [FilterOperator(lambda e: random.random() < 0.5, name="dice")],
        )
        diags = flow_purity_diagnostics(flow)
        assert any(d.code == "RA501" and "dice" in d.where for d in diags)

    def test_cache_rebinds_location(self):
        fn = lambda e: e["value"] > 1
        first = callable_diagnostics(fn, "here")
        second = callable_diagnostics(fn, "there")
        assert first == [] and second == []


# -- the translate() pre-flight ----------------------------------------------


class TestTranslatePreflight:
    def test_unsafe_o3_plan_rejected_before_execution(self):
        """Acceptance: a statically unsafe O3 plan never reaches execute()."""
        events = make_events()
        with pytest.raises(StaticAnalysisError) as excinfo:
            translate(
                parse_pattern(SEQ_KEYED),
                sources_for(events),  # sampled schemas are closed
                TranslationOptions.o3("bogus_attr"),
            )
        assert any(d.code == "RA402" for d in excinfo.value.diagnostics)

    def test_bad_field_ref_rejected_with_registry(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.bogus = b.id WITHIN 5 MINUTES"
        )
        with pytest.raises(StaticAnalysisError):
            translate(
                pattern, empty_sources(), registry=sensor_registry("Q", "V")
            )

    def test_analyze_false_opts_out(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.bogus = b.id WITHIN 5 MINUTES"
        )
        query = translate(
            pattern,
            empty_sources(),
            registry=sensor_registry("Q", "V"),
            analyze=False,
        )
        assert query.analysis is None

    def test_clean_translation_attaches_report(self):
        query = translate(parse_pattern(SEQ_KEYED), empty_sources())
        assert query.analysis is not None
        assert query.analysis.ok()

    def test_analysis_summary_lands_in_run_metrics(self):
        events = make_events()
        query = translate(parse_pattern(SEQ_KEYED), sources_for(events))
        result = query.execute()
        block = result.metrics["analysis"]
        assert block["ok"] is True and block["errors"] == 0

    def test_analyze_query_full_pipeline(self):
        query = translate(parse_pattern(SEQ_UNKEYED), empty_sources())
        report = analyze_query(query, prove_shardable=True)
        # no key set at all: both the plan-level and the flow-level proof fail
        assert {"RA401", "RA403"} <= report.codes()


class TestRecoverabilityCodes:
    def test_ra601_stateful_operator_without_protocol(self):
        from repro.analysis.recovery import flow_recovery_diagnostics

        class Amnesiac(StatefulOperator):
            def process_batch(self, items, port=0):
                return []

        flow = linear_pipeline(
            ListSource([], name="s", event_type="Q"), [Amnesiac(name="amnesiac")]
        )
        diags = flow_recovery_diagnostics(flow)
        assert any(
            d.code == "RA601" and d.is_error and "amnesiac" in d.message
            for d in diags
        )

    def test_ra602_half_implemented_protocol(self):
        from repro.analysis.recovery import flow_recovery_diagnostics

        class HalfWay(StatefulOperator):
            def process_batch(self, items, port=0):
                return []

            def snapshot_state(self):
                return {"work_units": self.work_units}

        flow = linear_pipeline(
            ListSource([], name="s", event_type="Q"), [HalfWay(name="half")]
        )
        diags = flow_recovery_diagnostics(flow)
        hits = [d for d in diags if d.code == "RA602"]
        assert hits and hits[0].is_error
        assert "restore_state" in hits[0].message

    def test_stateless_operators_are_exempt(self):
        from repro.analysis.recovery import flow_recovery_diagnostics

        flow = linear_pipeline(
            ListSource([], name="s", event_type="Q"),
            [FilterOperator(lambda e: True, name="keep")],
        )
        assert not flow_recovery_diagnostics(flow)

    def test_translated_flows_are_ra6xx_clean(self):
        from repro.analysis.recovery import flow_recovery_diagnostics

        query = translate(parse_pattern(SEQ_KEYED), empty_sources())
        assert not flow_recovery_diagnostics(query.env.flow)
        report = analyze_query(query)
        assert not (report.codes() & {"RA601", "RA602"})

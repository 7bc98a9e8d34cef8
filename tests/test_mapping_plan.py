"""Tests for the mapping rules (Table 1) and plan construction."""

import pytest

from repro.asp.operators.window import WindowSpec
from repro.asp.time import minutes
from repro.errors import OptimizationError, TranslationError
from repro.mapping.optimizations import TranslationOptions, check_applicability
from repro.mapping.plan import (
    CountAggregate,
    JoinKind,
    NseqPrepare,
    PostFilter,
    SchemaAlign,
    StreamScan,
    UnionAll,
    WindowJoin,
    WindowStrategy,
)
from repro.mapping.optimizer import build_plan
from repro.sea.ast import Pattern, iteration, nseq, ref, seq
from repro.sea.parser import parse_pattern

W = WindowSpec(size=minutes(15), slide=minutes(1))


def plan_of(text_or_pattern, options=None):
    pattern = (
        parse_pattern(text_or_pattern)
        if isinstance(text_or_pattern, str)
        else text_or_pattern
    )
    return build_plan(pattern, options or TranslationOptions())


class TestSequenceMapping:
    def test_two_way_seq_is_ordered_theta_join(self):
        plan = plan_of("PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES")
        root = plan.root
        assert isinstance(root, WindowJoin)
        assert root.kind is JoinKind.THETA
        assert root.ordered

    def test_seq_n_is_left_deep_chain(self):
        plan = plan_of("PATTERN SEQ(Q a, V b, PM10 c, PM2 d) WITHIN 15 MINUTES")
        assert plan.num_joins() == 3  # n-1 joins (Section 4.2.2)
        assert plan.root.aliases == ("a", "b", "c", "d")

    def test_filter_pushdown_into_scans(self):
        plan = plan_of(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 10 AND b.value < 5 "
            "WITHIN 15 MINUTES"
        )
        scans = plan.scans()
        assert all(len(s.filters) == 1 for s in scans)

    def test_cross_alias_predicate_attached_to_join(self):
        plan = plan_of(
            "PATTERN SEQ(Q a, V b) WHERE a.value < b.value WITHIN 15 MINUTES"
        )
        assert len(plan.root.extra_theta) == 1

    def test_cross_predicate_attaches_at_earliest_join(self):
        plan = plan_of(
            "PATTERN SEQ(Q a, V b, PM10 c) WHERE a.value < b.value "
            "WITHIN 15 MINUTES"
        )
        inner = plan.root.left
        assert isinstance(inner, WindowJoin)
        assert len(inner.extra_theta) == 1
        assert len(plan.root.extra_theta) == 0


class TestConjunctionMapping:
    def test_and_is_cross_join(self):
        plan = plan_of("PATTERN AND(Q a, V b) WITHIN 15 MINUTES")
        assert plan.root.kind is JoinKind.CROSS
        assert not plan.root.ordered

    def test_and_with_equi_key_becomes_equi_join(self):
        plan = plan_of("PATTERN AND(Q a, V b) WHERE a.id = b.id WITHIN 15 MINUTES")
        assert plan.root.kind is JoinKind.EQUI
        assert plan.root.equi_keys == ((("a", "id"), ("b", "id")),)


class TestDisjunctionMapping:
    def test_or_is_align_union(self):
        plan = plan_of("PATTERN OR(Q a, V b) WITHIN 15 MINUTES")
        assert isinstance(plan.root, UnionAll)
        assert all(isinstance(p, SchemaAlign) for p in plan.root.parts)


class TestIterationMapping:
    def test_join_strategy_self_join_chain(self):
        plan = plan_of("PATTERN ITER3(V v) WITHIN 15 MINUTES")
        assert plan.num_joins() == 2
        assert plan.root.aliases == ("v[1]", "v[2]", "v[3]")

    def test_bare_alias_filters_push_to_every_scan(self):
        plan = plan_of("PATTERN ITER3(V v) WHERE v.value < 10 WITHIN 15 MINUTES")
        assert all(len(s.filters) == 1 for s in plan.scans())

    def test_aggregate_strategy(self):
        plan = plan_of("PATTERN ITER3(V v) WITHIN 15 MINUTES", TranslationOptions.o2())
        assert isinstance(plan.root, CountAggregate)
        assert plan.root.minimum == 3
        assert plan.root.flavour == "count"

    def test_aggregate_with_consecutive_condition_uses_udf(self):
        pattern = Pattern(
            iteration(ref("V", "v"), 3, condition=lambda a, b: a.value < b.value),
            window=W,
        )
        plan = build_plan(pattern, TranslationOptions.o2())
        assert plan.root.flavour == "udf"
        assert plan.root.condition is not None

    def test_kleene_plus_auto_switches_to_aggregate(self):
        pattern = Pattern(iteration(ref("V", "v"), 2, minimum_occurrences=True), window=W)
        plan = build_plan(pattern, TranslationOptions.fasp())
        assert isinstance(plan.root, CountAggregate)

    def test_indexed_equi_keys_consumed_by_aggregate(self):
        plan = plan_of(
            "PATTERN ITER3(V v) WHERE v[1].id = v[2].id AND v[2].id = v[3].id "
            "WITHIN 15 MINUTES",
            TranslationOptions.o2(),
        )
        assert isinstance(plan.root, CountAggregate)
        assert plan.root.key_attribute == "id"

    def test_mixed_attribute_equalities_rejected_under_o2(self):
        pattern = parse_pattern(
            "PATTERN ITER2(V v) WHERE v[1].id = v[2].value WITHIN 15 MINUTES"
        )
        with pytest.raises(TranslationError, match="differing"):
            build_plan(pattern, TranslationOptions.o2())


class TestNseqMapping:
    def test_nseq_is_udf_plus_ordered_join(self):
        plan = plan_of("PATTERN SEQ(Q a, !W x, V b) WITHIN 15 MINUTES")
        assert isinstance(plan.root, WindowJoin)
        assert isinstance(plan.root.left, NseqPrepare)
        # The a_ts guard is present in the theta conjuncts.
        rendered = [p.render() for p in plan.root.extra_theta]
        assert any("a_ts" in r for r in rendered)

    def test_blocker_filters_push_into_negated_scan(self):
        plan = plan_of(
            "PATTERN SEQ(Q a, !W x, V b) WHERE x.value > 10 WITHIN 15 MINUTES"
        )
        assert len(plan.root.left.negated.filters) == 1


class TestO1Strategy:
    def test_interval_strategy_marks_joins(self):
        plan = plan_of("PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES", TranslationOptions.o1())
        assert plan.root.strategy is WindowStrategy.INTERVAL


class TestO3Strategy:
    def test_partition_attribute_keys_every_join(self):
        plan = plan_of(
            "PATTERN SEQ(Q a, V b, PM10 c) WITHIN 15 MINUTES",
            TranslationOptions.o3("id"),
        )
        joins = [n for n in plan.root.walk() if isinstance(n, WindowJoin)]
        assert all(j.kind is JoinKind.EQUI for j in joins)
        assert all(j.equi_keys for j in joins)

    def test_auto_equi_keys_consumed_from_where(self):
        plan = plan_of(
            "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 15 MINUTES"
        )
        assert plan.root.kind is JoinKind.EQUI
        assert len(plan.root.extra_theta) == 0  # consumed, not re-applied


class TestPlanMisc:
    def test_slide_override(self):
        plan = plan_of(
            "PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES",
            TranslationOptions(slide_override=minutes(3)),
        )
        assert plan.window_slide == minutes(3)

    def test_explain_renders_tree(self):
        plan = plan_of("PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES")
        text = plan.explain()
        assert "Join" in text and "Scan" in text

    def test_notes_record_options_label(self):
        plan = plan_of("PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES", TranslationOptions.o1())
        assert any("FASP-O1" in n for n in plan.notes)

    def test_unknown_iteration_strategy_rejected(self):
        with pytest.raises(OptimizationError):
            TranslationOptions(iteration_strategy="magic")


class TestOptionLabels:
    @pytest.mark.parametrize(
        "options,label",
        [
            (TranslationOptions.fasp(), "FASP"),
            (TranslationOptions.o1(), "FASP-O1"),
            (TranslationOptions.o2(), "FASP-O2"),
            (TranslationOptions.o3(), "FASP-O3"),
            (TranslationOptions.o1_o3(), "FASP-O1+O3"),
            (TranslationOptions.o2_o3(), "FASP-O2+O3"),
        ],
    )
    def test_labels_match_paper_legends(self, options, label):
        assert options.label() == label

    def test_applicability_notes(self):
        pattern = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES")
        notes = check_applicability(pattern, TranslationOptions.o2())
        assert any("no iteration" in n for n in notes)

"""Focused tests for translator internals and edge paths."""

import pytest

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.source import ListSource
from repro.asp.time import minutes
from repro.errors import TranslationError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.ir import WindowJoin
from repro.mapping.optimizer import build_plan
from repro.mapping.translator import (
    TranslatedQuery,
    _make_key_fn,
    _make_theta,
    translate,
)
from repro.sea.parser import parse_pattern

MIN = minutes(1)


def plan_join(text, options=None):
    plan = build_plan(parse_pattern(text), options or TranslationOptions())
    assert isinstance(plan.root, WindowJoin)
    return plan.root


class TestMakeTheta:
    def test_no_constraints_yields_none(self):
        join = plan_join("PATTERN AND(Q a, V b) WITHIN 5 MINUTES")
        assert _make_theta(join) is None

    def test_ordered_constraint(self):
        join = plan_join("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        theta = _make_theta(join)
        assert theta(Event("Q", ts=1), Event("V", ts=2))
        assert not theta(Event("Q", ts=2), Event("V", ts=1))
        assert not theta(Event("Q", ts=1), Event("V", ts=1))

    def test_ordered_uses_composition_extremes(self):
        join = plan_join("PATTERN SEQ(Q a, V b, W c) WITHIN 5 MINUTES")
        theta = _make_theta(join)
        pair = ComplexEvent((Event("Q", ts=1), Event("V", ts=5)))
        assert theta(pair, Event("W", ts=6))
        assert not theta(pair, Event("W", ts=4))  # inside the pair's span

    def test_cross_alias_conjunct(self):
        join = plan_join(
            "PATTERN SEQ(Q a, V b) WHERE a.value < b.value WITHIN 5 MINUTES"
        )
        theta = _make_theta(join)
        assert theta(Event("Q", ts=1, value=1.0), Event("V", ts=2, value=5.0))
        assert not theta(Event("Q", ts=1, value=9.0), Event("V", ts=2, value=5.0))


class TestMakeKeyFn:
    def test_single_key(self):
        key_fn = _make_key_fn(("a",), (("a", "id"),))
        assert key_fn(Event("Q", ts=1, id=7)) == 7

    def test_key_from_composition_position(self):
        key_fn = _make_key_fn(("a", "b"), (("b", "id"),))
        pair = ComplexEvent((Event("Q", ts=1, id=1), Event("V", ts=2, id=9)))
        assert key_fn(pair) == 9

    def test_multi_key_tuple(self):
        key_fn = _make_key_fn(("a",), (("a", "id"), ("a", "value")))
        assert key_fn(Event("Q", ts=1, id=7, value=3.0)) == (7, 3.0)

    def test_missing_alias_rejected(self):
        with pytest.raises(TranslationError, match="missing from side"):
            _make_key_fn(("a",), (("zz", "id"),))


class TestTranslateErrors:
    def test_missing_source_raises(self):
        pattern = parse_pattern("PATTERN SEQ(Q a, NOPE b) WITHIN 5 MINUTES")
        with pytest.raises(TranslationError, match="no source provided"):
            translate(pattern, {"Q": ListSource([], event_type="Q")})

    def test_matches_requires_collect_sink(self):
        from repro.asp.operators.sink import DiscardSink

        pattern = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        query = translate(
            pattern,
            {"Q": ListSource([], event_type="Q"),
             "V": ListSource([], event_type="V")},
        )
        query.attach_sink(DiscardSink())
        query.execute()
        with pytest.raises(TranslationError, match="CollectSink"):
            query.matches()

    def test_explain_includes_plan_and_flow(self):
        pattern = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        query = translate(
            pattern,
            {"Q": ListSource([], event_type="Q"),
             "V": ListSource([], event_type="V")},
        )
        text = query.explain()
        assert "LogicalPlan" in text
        assert "Dataflow" in text


class TestSharedPhysicalStream:
    def test_type_routing_filters_inserted(self):
        """A source whose event_type is None feeds several scans via
        per-type routing filters (the paper's single-CSV reading path)."""
        events = [Event("Q", ts=0), Event("V", ts=MIN)]
        shared = ListSource(events, name="mixed")  # event_type=None
        pattern = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        query = translate(pattern, {"Q": shared, "V": shared})
        type_filters = [
            n for n in query.env.flow.operator_nodes()
            if n.operator.kind == "type-filter"
        ]
        assert len(type_filters) == 2
        query.execute()
        assert len(query.matches()) == 1

    def test_typed_source_skips_routing(self):
        events = [Event("Q", ts=0)]
        typed = ListSource(events, name="q", event_type="Q")
        pattern = parse_pattern("PATTERN ITER1(Q q) WITHIN 5 MINUTES")
        query = translate(pattern, {"Q": typed})
        type_filters = [
            n for n in query.env.flow.operator_nodes()
            if n.operator.kind == "type-filter"
        ]
        assert not type_filters

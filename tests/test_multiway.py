"""Tests for the Beam-style multi-way window join (paper Section 4.2.2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.datamodel import Event
from repro.asp.operators.multiway import MultiWayWindowJoin
from repro.asp.operators.source import ListSource
from repro.asp.operators.window import WindowSpec
from repro.asp.state import StateRegistry
from repro.asp.time import Watermark, minutes
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.ir import MultiWayJoin
from repro.mapping.optimizer import build_plan
from repro.mapping.sql import render_sql
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern
from repro.sea.semantics import evaluate_pattern

MIN = minutes(1)

MW = TranslationOptions(use_multiway_joins=True)


def make_stream(seed, n=50, types=("Q", "V", "W")):
    rng = random.Random(seed)
    return [
        Event(rng.choice(types), ts=i * MIN, id=rng.randint(1, 3),
              value=round(rng.uniform(0, 100), 3))
        for i in range(n)
    ]


def sources_for(events):
    by_type = {}
    for e in events:
        by_type.setdefault(e.event_type, []).append(e)
    return {t: ListSource(v, name=t, event_type=t) for t, v in by_type.items()}


def run_mw(text, events, options=MW):
    pattern = parse_pattern(text)
    query = translate(pattern, sources_for(events), options)
    query.execute()
    return pattern, query


class TestOperator:
    def test_three_way_ordered(self):
        join = MultiWayWindowJoin(3, WindowSpec(5 * MIN, MIN), ordered=True)
        join.setup(StateRegistry())
        join.process_batch([Event("A", ts=0)], port=0)
        join.process_batch([Event("B", ts=MIN)], port=1)
        join.process_batch([Event("C", ts=2 * MIN)], port=2)
        out = list(join.on_watermark(Watermark.terminal()))
        assert len(out) == 1
        assert [e.event_type for e in out[0].events] == ["A", "B", "C"]

    def test_order_violation_rejected(self):
        join = MultiWayWindowJoin(3, WindowSpec(5 * MIN, MIN), ordered=True)
        join.setup(StateRegistry())
        join.process_batch([Event("A", ts=2 * MIN)], port=0)
        join.process_batch([Event("B", ts=MIN)], port=1)
        join.process_batch([Event("C", ts=3 * MIN)], port=2)
        assert list(join.on_watermark(Watermark.terminal())) == []

    def test_unordered_cross_product(self):
        join = MultiWayWindowJoin(2, WindowSpec(5 * MIN, MIN), ordered=False)
        join.setup(StateRegistry())
        join.process_batch([Event("A", ts=2 * MIN)], port=0)
        join.process_batch([Event("B", ts=MIN)], port=1)
        assert len(list(join.on_watermark(Watermark.terminal()))) == 1

    def test_keyed_join(self):
        join = MultiWayWindowJoin(
            2, WindowSpec(5 * MIN, MIN), ordered=True, key_fn=lambda e: e.id
        )
        join.setup(StateRegistry())
        join.process_batch([Event("A", ts=0, id=1)], port=0)
        join.process_batch([Event("B", ts=MIN, id=2)], port=1)
        join.process_batch([Event("B", ts=2 * MIN, id=1)], port=1)
        out = list(join.on_watermark(Watermark.terminal()))
        assert len(out) == 1
        assert out[0].events[1].id == 1

    def test_tuple_theta(self):
        join = MultiWayWindowJoin(
            2, WindowSpec(5 * MIN, MIN), ordered=True,
            theta=lambda events: events[0].value < events[1].value,
        )
        join.setup(StateRegistry())
        join.process_batch([Event("A", ts=0, value=5.0)], port=0)
        join.process_batch([Event("B", ts=MIN, value=1.0)], port=1)
        join.process_batch([Event("B", ts=2 * MIN, value=9.0)], port=1)
        out = list(join.on_watermark(Watermark.terminal()))
        assert len(out) == 1
        assert out[0].events[1].value == 9.0

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            MultiWayWindowJoin(1, WindowSpec(MIN, MIN))

    def test_invalid_port(self):
        join = MultiWayWindowJoin(2, WindowSpec(MIN, MIN))
        join.setup(StateRegistry())
        with pytest.raises(ValueError):
            join.process_batch([Event("A", ts=0)], port=5)

    def test_watermark_delay(self):
        join = MultiWayWindowJoin(3, WindowSpec(7 * MIN, MIN))
        assert join.watermark_delay() == 7 * MIN


class TestPlanAndTranslation:
    def test_flat_seq_becomes_multiway(self):
        pattern = parse_pattern("PATTERN SEQ(Q a, V b, W c) WITHIN 6 MINUTES")
        plan = build_plan(pattern, MW)
        assert isinstance(plan.root, MultiWayJoin)
        assert plan.root.ordered
        assert any("n-ary" in n for n in plan.notes)

    def test_nested_pattern_falls_back_to_binary_chain(self):
        pattern = parse_pattern("PATTERN SEQ(Q a, AND(V b, W c)) WITHIN 6 MINUTES")
        plan = build_plan(pattern, MW)
        assert not isinstance(plan.root, MultiWayJoin)

    def test_shared_key_attribute_subsumed(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b, W c) WHERE a.id = b.id AND b.id = c.id "
            "WITHIN 6 MINUTES"
        )
        plan = build_plan(pattern, MW)
        assert plan.root.key_attribute == "id"
        assert not plan.root.extra_theta

    def test_partial_key_chain_stays_theta(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b, W c) WHERE a.id = b.id WITHIN 6 MINUTES"
        )
        plan = build_plan(pattern, MW)
        assert plan.root.key_attribute is None
        assert len(plan.root.extra_theta) == 1

    def test_sql_rendering_matches_listing8(self):
        pattern = parse_pattern("PATTERN SEQ(T1 e1, T2 e2, T3 e3) WITHIN 15 MINUTES")
        sql = render_sql(build_plan(pattern, MW))
        assert "Stream T1 e1, Stream T2 e2, Stream T3 e3" in sql
        assert "e1.ts < e2.ts" in sql and "e2.ts < e3.ts" in sql
        assert "multi-way" in sql


class TestEquivalence:
    @pytest.mark.parametrize("text,unordered", [
        ("PATTERN SEQ(Q a, V b, W c) WITHIN 6 MINUTES SLIDE 1 MINUTE", False),
        ("PATTERN AND(Q a, V b) WITHIN 4 MINUTES SLIDE 1 MINUTE", True),
        ("PATTERN SEQ(Q a, V b, W c) WHERE a.id = b.id AND b.id = c.id "
         "WITHIN 6 MINUTES SLIDE 1 MINUTE", False),
        ("PATTERN SEQ(Q a, V b) WHERE a.value < b.value "
         "WITHIN 6 MINUTES SLIDE 1 MINUTE", False),
    ])
    def test_multiway_equals_oracle(self, text, unordered):
        for seed in (1, 2):
            events = make_stream(seed)
            pattern, query = run_mw(text, events)
            key = (lambda m: m.ordered_dedup_key()) if unordered else (
                lambda m: m.dedup_key()
            )
            got = {key(m) for m in query.matches()}
            want = {key(m) for m in evaluate_pattern(pattern, events)}
            assert got == want, f"seed={seed}"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_multiway_equals_binary_chain(self, seed):
        """The Beam n-ary join and the binary-chain fallback are
        semantically equivalent plans for the same pattern."""
        events = make_stream(seed, n=40)
        text = "PATTERN SEQ(Q a, V b, W c) WITHIN 5 MINUTES SLIDE 1 MINUTE"
        _p1, q_multi = run_mw(text, events, MW)
        _p2, q_binary = run_mw(text, events, TranslationOptions.fasp())
        multi = {m.dedup_key() for m in q_multi.matches()}
        binary = {m.dedup_key() for m in q_binary.matches()}
        assert multi == binary

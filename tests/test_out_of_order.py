"""Out-of-order arrival handling (an ASP capability; paper Section 6)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.datamodel import Event
from repro.asp.operators.source import ListSource
from repro.asp.time import minutes
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern
from repro.sea.semantics import evaluate_pattern
from repro.workloads.disorder import max_disorder, shuffle_bounded

MIN = minutes(1)


def make_stream(seed, n=50, types=("Q", "V")):
    rng = random.Random(seed)
    return [
        Event(rng.choice(types), ts=i * MIN, id=1,
              value=round(rng.uniform(0, 100), 3))
        for i in range(n)
    ]


#: One plan per sliding-window operator: (pattern, options, event types,
#: whether the plan is exact — the O2 count is approximate by design, so
#: its disordered output is held to its own in-order output instead of
#: the oracle's).
PLANS = [
    pytest.param(
        "PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE",
        TranslationOptions.fasp(), ("Q", "V"), True, id="seq",
    ),
    pytest.param(
        "PATTERN SEQ(Q a, V b, W c) WITHIN 5 MINUTES SLIDE 1 MINUTE",
        TranslationOptions(use_multiway_joins=True), ("Q", "V", "W"), True,
        id="seq3-multiway",
    ),
    pytest.param(
        "PATTERN ITER3(V v) WHERE v.value > 40 WITHIN 5 MINUTES SLIDE 1 MINUTE",
        TranslationOptions(iteration_strategy="exact"), ("Q", "V"), True,
        id="iter-exact",
    ),
    pytest.param(
        "PATTERN ITER3(V v) WHERE v.value > 40 WITHIN 5 MINUTES SLIDE 1 MINUTE",
        TranslationOptions.o2(), ("Q", "V"), False, id="o2-count",
    ),
]


def run_disordered(pattern, arrival_events, allowed_lateness, options=None):
    # One pre-merged source delivering in arrival order.
    source = ListSource(arrival_events, name="disordered")
    by_type = {}
    for e in arrival_events:
        by_type.setdefault(e.event_type, None)
    sources = {t: source for t in by_type}
    # Reuse the same physical source object for all types: the compiler
    # adds per-type routing filters since source.event_type is None.
    query = translate(pattern, sources, options or TranslationOptions.fasp())
    query.execute(max_out_of_orderness=allowed_lateness)
    return query.matches()


def expected_keys(pattern, events, options, exact):
    if exact:
        return {m.dedup_key() for m in evaluate_pattern(pattern, events)}
    return {m.dedup_key() for m in run_disordered(pattern, events, 0, options)}


class TestShuffleBounded:
    def test_zero_delay_is_identity(self):
        events = make_stream(1)
        assert shuffle_bounded(events, 0) == events

    def test_disorder_is_bounded(self):
        events = make_stream(2)
        shuffled = shuffle_bounded(events, 3 * MIN, seed=9)
        assert 0 < max_disorder(shuffled) <= 3 * MIN

    def test_permutation_preserves_multiset(self):
        events = make_stream(3)
        shuffled = shuffle_bounded(events, 5 * MIN)
        assert sorted(shuffled, key=lambda e: (e.ts, e.value)) == sorted(
            events, key=lambda e: (e.ts, e.value)
        )

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            shuffle_bounded([], -1)


class TestExactnessUnderBoundedDisorder:
    @pytest.mark.parametrize("text,options,types,exact", PLANS)
    def test_matches_preserved_with_adequate_lateness(self, text, options, types, exact):
        pattern = parse_pattern(text)
        events = make_stream(5, types=types)
        want = expected_keys(pattern, events, options, exact)
        assert want
        shuffled = shuffle_bounded(events, 2 * MIN, seed=3)
        got = {
            m.dedup_key()
            for m in run_disordered(pattern, shuffled, 2 * MIN, options)
        }
        assert got == want

    def test_interval_join_is_arrival_order_insensitive(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 6 MINUTES SLIDE 1 MINUTE"
        )
        events = make_stream(6)
        want = {m.dedup_key() for m in evaluate_pattern(pattern, events)}
        shuffled = shuffle_bounded(events, 3 * MIN, seed=4)
        source = ListSource(shuffled, name="disordered")
        query = translate(
            pattern, {"Q": source, "V": source}, TranslationOptions.o1()
        )
        query.execute(max_out_of_orderness=3 * MIN)
        got = {m.dedup_key() for m in query.matches()}
        assert got == want

    @pytest.mark.parametrize("text,options,types,exact", PLANS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           delay_min=st.integers(min_value=0, max_value=4))
    def test_property_exact_when_lateness_covers_disorder(
        self, text, options, types, exact, seed, delay_min
    ):
        pattern = parse_pattern(text)
        events = make_stream(seed, n=35, types=types)
        want = expected_keys(pattern, events, options, exact)
        shuffled = shuffle_bounded(events, delay_min * MIN, seed=seed)
        got = {
            m.dedup_key()
            for m in run_disordered(pattern, shuffled, delay_min * MIN, options)
        }
        assert got == want

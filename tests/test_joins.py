"""Tests for the window joins — the physical heart of the mapping.

Both join flavours are validated against brute-force reference
computations, including the duplicate-free property of interval joins
(paper O1) and the first-shared-window emission rule of sliding joins.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.datamodel import Event
from repro.asp.operators.join import IntervalJoin, SlidingWindowJoin, compose
from repro.asp.operators.window import IntervalBounds, WindowSpec
from repro.asp.state import StateRegistry
from repro.asp.time import Watermark

MIN = 60_000


def drive_join(join, left, right, watermark_step=MIN):
    """Feed two time-ordered streams into a binary join, interleaved by
    timestamp, advancing the watermark as time passes."""
    join.setup(StateRegistry())
    out = []
    items = sorted(
        [(e.ts, 0, e) for e in left] + [(e.ts, 1, e) for e in right],
        key=lambda t: (t[0], t[1]),
    )
    last_wm = None
    for ts, port, event in items:
        wm_due = ts - watermark_step
        if last_wm is None or wm_due - last_wm >= watermark_step:
            out.extend(join.on_watermark(Watermark(wm_due)))
            last_wm = wm_due
        out.extend(join.process_batch([event], port=port))
    out.extend(join.on_watermark(Watermark.terminal()))
    return out


def brute_force_cowindow_pairs(left, right, size, slide, theta=None):
    """All (l, r) pairs sharing at least one sliding window."""
    out = []
    for l in left:
        for r in right:
            newest = max(l.ts, r.ts)
            oldest = min(l.ts, r.ts)
            first_k = -(-(newest - size + 1) // slide)
            if first_k * slide <= oldest:
                if theta is None or theta(l, r):
                    out.append((l, r))
    return out


def events_every_minute(event_type, count, start=0, id=1):
    return [Event(event_type, ts=start + i * MIN, id=id, value=i) for i in range(count)]


class TestCompose:
    def test_min_ts_for_partial_matches(self):
        q, v = Event("Q", ts=10), Event("V", ts=30)
        ce = compose(q, v, "min")
        assert ce.ts == 10

    def test_max_ts_for_complete_matches(self):
        q, v = Event("Q", ts=10), Event("V", ts=30)
        assert compose(q, v, "max").ts == 30

    def test_flattens_nested_compositions(self):
        q, v, w = Event("Q", ts=1), Event("V", ts=2), Event("W", ts=3)
        pair = compose(q, v, "min")
        triple = compose(pair, w, "min")
        assert triple.events == (q, v, w)


class TestSlidingWindowJoin:
    def test_matches_brute_force(self):
        left = events_every_minute("Q", 20)
        right = events_every_minute("V", 20, start=30_000)
        spec = WindowSpec(5 * MIN, MIN)
        join = SlidingWindowJoin(spec, theta=lambda l, r: l.ts < r.ts)
        got = drive_join(join, left, right)
        expected = brute_force_cowindow_pairs(
            left, right, spec.size, spec.slide, theta=lambda l, r: l.ts < r.ts
        )
        assert len(got) == len(expected)
        assert {(ce.events[0].ts, ce.events[1].ts) for ce in got} == {
            (l.ts, r.ts) for l, r in expected
        }

    def test_emit_duplicates_produces_per_window_copies(self):
        left = [Event("Q", ts=10 * MIN)]
        right = [Event("V", ts=10 * MIN)]
        join = SlidingWindowJoin(WindowSpec(5 * MIN, MIN), emit_duplicates=True)
        got = drive_join(join, left, right)
        # co-located pair shares all 5 overlapping windows
        assert len(got) == 5

    def test_keyed_join_restricts_to_same_key(self):
        left = [Event("Q", ts=MIN, id=1), Event("Q", ts=MIN, id=2)]
        right = [Event("V", ts=2 * MIN, id=1)]
        join = SlidingWindowJoin(
            WindowSpec(5 * MIN, MIN),
            left_key=lambda e: e.id,
            right_key=lambda e: e.id,
        )
        got = drive_join(join, left, right)
        assert len(got) == 1
        assert got[0].events[0].id == 1

    def test_theta_none_is_cross_product(self):
        left = [Event("Q", ts=MIN), Event("Q", ts=2 * MIN)]
        right = [Event("V", ts=MIN + 1000), Event("V", ts=2 * MIN + 1000)]
        join = SlidingWindowJoin(WindowSpec(10 * MIN, MIN))
        got = drive_join(join, left, right)
        assert len(got) == 4  # all pairs co-window

    def test_invalid_port(self):
        join = SlidingWindowJoin(WindowSpec(MIN, MIN))
        join.setup(StateRegistry())
        with pytest.raises(ValueError):
            join.process_batch([Event("Q", ts=1)], port=2)

    def test_watermark_delay_equals_window_size(self):
        join = SlidingWindowJoin(WindowSpec(5 * MIN, MIN))
        assert join.watermark_delay() == 5 * MIN

    def test_pairs_tested_counts_work(self):
        left = events_every_minute("Q", 5)
        right = events_every_minute("V", 5)
        join = SlidingWindowJoin(WindowSpec(3 * MIN, MIN))
        drive_join(join, left, right)
        assert join.pairs_tested > 0
        assert join.pairs_emitted <= join.pairs_tested


class TestIntervalJoin:
    def test_sequence_bounds_match_brute_force(self):
        left = events_every_minute("Q", 20)
        right = events_every_minute("V", 20, start=30_000)
        W = 5 * MIN
        join = IntervalJoin(IntervalBounds.sequence(W))
        got = drive_join(join, left, right)
        expected = [
            (l, r) for l in left for r in right if l.ts < r.ts < l.ts + W
        ]
        assert {(ce.events[0].ts, ce.events[1].ts) for ce in got} == {
            (l.ts, r.ts) for l, r in expected
        }
        assert len(got) == len(expected)  # duplicate-free (O1)

    def test_conjunction_bounds_symmetric(self):
        left = [Event("Q", ts=10 * MIN)]
        right = [Event("V", ts=8 * MIN), Event("V", ts=12 * MIN), Event("V", ts=20 * MIN)]
        join = IntervalJoin(IntervalBounds.conjunction(5 * MIN))
        got = drive_join(join, left, right)
        assert len(got) == 2  # both within +-5 minutes

    def test_eager_emission_on_arrival(self):
        join = IntervalJoin(IntervalBounds.sequence(5 * MIN))
        join.setup(StateRegistry())
        assert not join.process_batch([Event("Q", ts=MIN)], port=0)
        out = join.process_batch([Event("V", ts=2 * MIN)], port=1)
        assert len(out) == 1

    def test_late_left_joins_buffered_right(self):
        join = IntervalJoin(IntervalBounds.conjunction(5 * MIN))
        join.setup(StateRegistry())
        join.process_batch([Event("V", ts=2 * MIN)], port=1)
        out = join.process_batch([Event("Q", ts=3 * MIN)], port=0)
        assert len(out) == 1

    def test_keyed_interval_join(self):
        join = IntervalJoin(
            IntervalBounds.sequence(5 * MIN),
            left_key=lambda e: e.id,
            right_key=lambda e: e.id,
        )
        join.setup(StateRegistry())
        join.process_batch([Event("Q", ts=MIN, id=1)], port=0)
        assert not join.process_batch([Event("V", ts=2 * MIN, id=2)], port=1)
        assert join.process_batch([Event("V", ts=2 * MIN, id=1)], port=1)

    def test_eviction_by_watermark(self):
        join = IntervalJoin(IntervalBounds.sequence(2 * MIN))
        registry = StateRegistry()
        join.setup(registry)
        for i in range(50):
            join.process_batch([Event("Q", ts=i * MIN)], port=0)
            join.on_watermark(Watermark(i * MIN))
        assert registry.total_items() <= 4

    def test_watermark_delay(self):
        assert IntervalJoin(IntervalBounds.sequence(7)).watermark_delay() == 7
        assert IntervalJoin(IntervalBounds.conjunction(7)).watermark_delay() == 7


class TestJoinEquivalenceProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        left_ts=st.lists(st.integers(min_value=0, max_value=40), min_size=0,
                         max_size=12, unique=True),
        right_ts=st.lists(st.integers(min_value=0, max_value=40), min_size=0,
                          max_size=12, unique=True),
        window_slots=st.integers(min_value=1, max_value=10),
    )
    def test_sliding_join_equals_brute_force_on_grid(self, left_ts, right_ts, window_slots):
        """Grid-aligned streams: sliding join == brute-force co-window
        pairs (after the first-shared-window dedup)."""
        left = [Event("Q", ts=t * MIN, value=t) for t in sorted(left_ts)]
        right = [Event("V", ts=t * MIN, value=t) for t in sorted(right_ts)]
        spec = WindowSpec(window_slots * MIN, MIN)
        join = SlidingWindowJoin(spec, theta=lambda l, r: l.ts < r.ts)
        got = drive_join(join, left, right)
        expected = brute_force_cowindow_pairs(
            left, right, spec.size, spec.slide, theta=lambda l, r: l.ts < r.ts
        )
        assert {(ce.events[0].ts, ce.events[1].ts) for ce in got} == {
            (l.ts, r.ts) for l, r in expected
        }

    @settings(max_examples=30, deadline=None)
    @given(
        left_ts=st.lists(st.integers(min_value=0, max_value=10**6), min_size=0,
                         max_size=12, unique=True),
        right_ts=st.lists(st.integers(min_value=0, max_value=10**6), min_size=0,
                          max_size=12, unique=True),
        window=st.integers(min_value=1, max_value=10**5),
    )
    def test_interval_join_exact_for_arbitrary_timestamps(self, left_ts, right_ts, window):
        """O1 needs no grid alignment: exact for arbitrary timestamps."""
        left = [Event("Q", ts=t) for t in sorted(left_ts)]
        right = [Event("V", ts=t) for t in sorted(right_ts)]
        join = IntervalJoin(IntervalBounds.sequence(window))
        got = drive_join(join, left, right, watermark_step=window)
        expected = {
            (l.ts, r.ts)
            for l in left
            for r in right
            if l.ts < r.ts < l.ts + window
        }
        assert {(ce.events[0].ts, ce.events[1].ts) for ce in got} == expected

"""Tests for window aggregations (O2) and the NSEQ next-occurrence UDF."""

import pytest

from repro.asp.datamodel import Event
from repro.asp.operators.aggregate import (
    SortedWindowUdfAggregate,
    WindowAggregate,
    increasing_run_udf,
    kleene_plus_count_udf,
)
from repro.asp.operators.process import AUX_TS_ATTRIBUTE, NextOccurrenceUdf
from repro.asp.operators.window import WindowSpec
from repro.asp.state import StateRegistry
from repro.asp.time import Watermark

MIN = 60_000


def feed(op, events, final=True):
    op.setup(StateRegistry())
    out = []
    for e in events:
        out.extend(op.process_batch([e]))
        out.extend(op.on_watermark(Watermark(e.ts - MIN)))
    if final:
        out.extend(op.on_watermark(Watermark.terminal()))
    return out


class TestWindowAggregate:
    def test_count_per_tumbling_window(self):
        op = WindowAggregate(WindowSpec(3 * MIN, 3 * MIN), function="count")
        events = [Event("V", ts=i * MIN) for i in range(6)]
        out = feed(op, events)
        assert [o.value for o in out] == [3.0, 3.0]

    def test_empty_windows_never_fire(self):
        """Paper Section 4.3.2: O2 cannot express Kleene* because windows
        with no event never trigger."""
        op = WindowAggregate(WindowSpec(MIN, MIN), function="count")
        events = [Event("V", ts=0), Event("V", ts=10 * MIN)]
        out = feed(op, events)
        assert len(out) == 2  # only the two non-empty windows fired

    def test_sliding_count_overlap(self):
        op = WindowAggregate(WindowSpec(2 * MIN, MIN), function="count")
        events = [Event("V", ts=0), Event("V", ts=MIN)]
        out = feed(op, events)
        counts = sorted(o.value for o in out)
        assert counts == [1.0, 1.0, 2.0]  # windows [-1,1), [0,2), [1,3)

    @pytest.mark.parametrize(
        "function,expected",
        [("sum", 6.0), ("avg", 2.0), ("min", 1.0), ("max", 3.0), ("count", 3.0)],
    )
    def test_builtin_functions(self, function, expected):
        op = WindowAggregate(WindowSpec(10 * MIN, 10 * MIN), function=function)
        events = [Event("V", ts=i * MIN, value=v) for i, v in enumerate([1.0, 2.0, 3.0])]
        out = feed(op, events)
        assert out[0].value == expected

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            WindowAggregate(WindowSpec(MIN, MIN), function="median")

    def test_keyed_aggregation_separates_keys(self):
        op = WindowAggregate(
            WindowSpec(10 * MIN, 10 * MIN), function="count", key_fn=lambda e: e.id
        )
        events = [Event("V", ts=i * MIN, id=i % 2) for i in range(6)]
        out = feed(op, events)
        assert sorted(o.value for o in out) == [3.0, 3.0]
        assert {o.id for o in out} == {0, 1}

    def test_output_carries_window_metadata(self):
        op = WindowAggregate(WindowSpec(2 * MIN, 2 * MIN), output_type="AGG")
        out = feed(op, [Event("V", ts=0)])
        assert out[0].event_type == "AGG"
        assert out[0]["window_begin"] == 0
        assert out[0]["window_end"] == 2 * MIN
        assert out[0].ts == 2 * MIN - 1


class TestSortedWindowUdfAggregate:
    def test_udf_receives_sorted_pairs(self):
        seen = []

        def udf(pairs):
            seen.append(list(pairs))
            return [float(len(pairs))]

        op = SortedWindowUdfAggregate(WindowSpec(5 * MIN, 5 * MIN), udf)
        feed(op, [Event("V", ts=2 * MIN, value=9.0), Event("V", ts=1 * MIN, value=4.0)])
        assert seen[0] == [(1 * MIN, 4.0), (2 * MIN, 9.0)]

    def test_udf_multiple_outputs(self):
        op = SortedWindowUdfAggregate(
            WindowSpec(5 * MIN, 5 * MIN), lambda pairs: [1.0, 2.0]
        )
        out = feed(op, [Event("V", ts=0)])
        assert [o.value for o in out] == [1.0, 2.0]

    def test_kleene_plus_udf_threshold(self):
        udf = kleene_plus_count_udf(3)
        assert udf([(0, 1.0)] * 2) == []
        assert udf([(0, 1.0)] * 3) == [3.0]

    def test_increasing_run_udf(self):
        udf = increasing_run_udf(3)
        assert udf([(0, 1.0), (1, 2.0), (2, 3.0)]) == [3.0]
        assert udf([(0, 3.0), (1, 2.0), (2, 1.0)]) == []
        assert udf([(0, 1.0), (1, 5.0), (2, 2.0), (3, 3.0), (4, 4.0)]) == [3.0]

    def test_increasing_run_udf_empty(self):
        assert increasing_run_udf(1)([]) == []


class TestNextOccurrenceUdf:
    def test_blocker_resolves_pending_with_its_ts(self):
        op = NextOccurrenceUdf("Q", "W", window_size=5 * MIN)
        op.setup(StateRegistry())
        assert not op.process_batch([Event("Q", ts=MIN)])
        out = op.process_batch([Event("W", ts=3 * MIN)])
        assert len(out) == 1
        assert out[0][AUX_TS_ATTRIBUTE] == 3 * MIN

    def test_timeout_resolves_with_sentinel(self):
        op = NextOccurrenceUdf("Q", "W", window_size=5 * MIN)
        op.setup(StateRegistry())
        op.process_batch([Event("Q", ts=MIN)])
        out = list(op.on_watermark(Watermark(MIN + 5 * MIN)))
        assert len(out) == 1
        assert out[0][AUX_TS_ATTRIBUTE] == MIN + 5 * MIN

    def test_watermark_before_deadline_keeps_pending(self):
        op = NextOccurrenceUdf("Q", "W", window_size=5 * MIN)
        op.setup(StateRegistry())
        op.process_batch([Event("Q", ts=MIN)])
        assert not list(op.on_watermark(Watermark(3 * MIN)))

    def test_blocker_outside_window_does_not_resolve_early(self):
        op = NextOccurrenceUdf("Q", "W", window_size=2 * MIN)
        op.setup(StateRegistry())
        op.process_batch([Event("Q", ts=MIN)])
        out = op.process_batch([Event("W", ts=10 * MIN)])
        # blocker past the deadline resolves by timeout semantics instead
        assert out and out[0][AUX_TS_ATTRIBUTE] == MIN + 2 * MIN

    def test_first_blocker_wins(self):
        op = NextOccurrenceUdf("Q", "W", window_size=10 * MIN)
        op.setup(StateRegistry())
        op.process_batch([Event("Q", ts=MIN)])
        out1 = op.process_batch([Event("W", ts=2 * MIN)])
        out2 = op.process_batch([Event("W", ts=3 * MIN)])
        assert out1[0][AUX_TS_ATTRIBUTE] == 2 * MIN
        assert out2 == []  # already resolved

    def test_keyed_variant_only_blocks_same_id(self):
        op = NextOccurrenceUdf("Q", "W", window_size=5 * MIN, keyed=True)
        op.setup(StateRegistry())
        op.process_batch([Event("Q", ts=MIN, id=1)])
        assert not op.process_batch([Event("W", ts=2 * MIN, id=2)])
        out = op.process_batch([Event("W", ts=3 * MIN, id=1)])
        assert out and out[0][AUX_TS_ATTRIBUTE] == 3 * MIN

    def test_other_types_ignored(self):
        op = NextOccurrenceUdf("Q", "W", window_size=5 * MIN)
        op.setup(StateRegistry())
        op.process_batch([Event("Q", ts=MIN)])
        assert not op.process_batch([Event("V", ts=2 * MIN)])

    def test_watermark_delay_is_window(self):
        assert NextOccurrenceUdf("Q", "W", window_size=7).watermark_delay() == 7

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            NextOccurrenceUdf("Q", "W", window_size=0)

    def test_state_accounting_drains(self):
        op = NextOccurrenceUdf("Q", "W", window_size=MIN)
        registry = StateRegistry()
        op.setup(registry)
        for i in range(10):
            op.process_batch([Event("Q", ts=i * MIN)])
        op.on_watermark(Watermark.terminal())
        assert registry.total_items() == 0

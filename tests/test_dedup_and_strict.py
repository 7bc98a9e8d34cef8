"""Tests for the dedup operator and the strict-contiguity reference."""

import random

import pytest

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.dedup import DedupOperator
from repro.asp.state import StateRegistry
from repro.asp.time import Watermark, minutes
from repro.cep.matches import strict_contiguity_reference
from repro.cep.nfa import run_nfa
from repro.cep.pattern_api import from_sea_pattern
from repro.cep.policies import STRICT
from repro.sea.parser import parse_pattern

MIN = minutes(1)


class TestDedupOperator:
    def test_drops_repeated_matches(self):
        op = DedupOperator(window_size=5 * MIN)
        op.setup(StateRegistry())
        ce = ComplexEvent((Event("Q", ts=0), Event("V", ts=MIN)))
        assert op.process_batch([ce]) == [ce]
        assert op.process_batch([ce]) == []
        assert op.duplicates_dropped == 1

    def test_unordered_mode_collapses_permutations(self):
        op = DedupOperator(window_size=5 * MIN, unordered=True)
        op.setup(StateRegistry())
        q, v = Event("Q", ts=0), Event("V", ts=MIN)
        assert op.process_batch([ComplexEvent((q, v))])
        assert not op.process_batch([ComplexEvent((v, q))])

    def test_ordered_mode_keeps_permutations(self):
        op = DedupOperator(window_size=5 * MIN)
        op.setup(StateRegistry())
        q, v = Event("Q", ts=0), Event("V", ts=MIN)
        assert op.process_batch([ComplexEvent((q, v))])
        assert op.process_batch([ComplexEvent((v, q))])

    def test_raw_events_deduplicated_too(self):
        op = DedupOperator(window_size=5 * MIN)
        op.setup(StateRegistry())
        e = Event("Q", ts=0, id=1, value=2.0)
        assert op.process_batch([e])
        assert not op.process_batch([Event("Q", ts=0, id=1, value=2.0)])

    def test_watermark_evicts_old_keys(self):
        op = DedupOperator(window_size=2 * MIN)
        registry = StateRegistry()
        op.setup(registry)
        for i in range(20):
            op.process_batch([Event("Q", ts=i * MIN, value=float(i))])
            op.on_watermark(Watermark(i * MIN))
        assert registry.total_items() <= 4

    def test_reemission_after_eviction(self):
        """Once the window passed, the same key may legitimately appear
        again (a genuinely new occurrence) and must pass."""
        op = DedupOperator(window_size=MIN)
        op.setup(StateRegistry())
        e = Event("Q", ts=0)
        assert op.process_batch([e])
        op.on_watermark(Watermark(10 * MIN))
        assert op.process_batch([Event("Q", ts=0)])

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DedupOperator(window_size=0)

    def test_end_to_end_normalizes_duplicate_pipeline(self):
        """emit_duplicates pipeline + DedupOperator == duplicate-free run."""
        from repro.asp.operators.source import ListSource
        from repro.mapping.optimizations import TranslationOptions
        from repro.mapping.translator import translate

        rng = random.Random(5)
        events = [
            Event(rng.choice(["Q", "V"]), ts=i * MIN, value=rng.uniform(0, 100))
            for i in range(40)
        ]
        def srcs():
            by = {}
            for e in events:
                by.setdefault(e.event_type, []).append(e)
            return {t: ListSource(v, name=t, event_type=t) for t, v in by.items()}

        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE"
        )
        clean = translate(pattern, srcs())
        clean.execute()
        raw = translate(pattern, srcs(), TranslationOptions(emit_duplicates=True))
        dedup_op = DedupOperator(window_size=pattern.window.size)
        raw_dedup_handle = raw.output.transform(dedup_op)
        sink = raw_dedup_handle.sink()
        raw.sink = sink
        raw.env.execute(watermark_interval=MIN)
        assert {m.dedup_key() for m in sink.matches()} == {
            m.dedup_key() for m in clean.matches()
        }
        assert dedup_op.duplicates_dropped > 0


class TestStrictContiguityReference:
    def test_nfa_strict_matches_reference(self):
        rng = random.Random(11)
        events = [
            Event(rng.choice(["Q", "V", "W"]), ts=i * MIN,
                  value=rng.uniform(0, 100))
            for i in range(80)
        ]
        sea = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 6 MINUTES")
        cep = from_sea_pattern(sea, STRICT)
        nfa = {m.dedup_key() for m in run_nfa(cep, events)}
        ref = {m.dedup_key() for m in strict_contiguity_reference(cep, events)}
        assert nfa == ref

    def test_three_way_strict(self):
        rng = random.Random(23)
        events = [
            Event(rng.choice(["Q", "V", "W"]), ts=i * MIN,
                  value=rng.uniform(0, 100))
            for i in range(80)
        ]
        sea = parse_pattern("PATTERN SEQ(Q a, V b, W c) WITHIN 8 MINUTES")
        cep = from_sea_pattern(sea, STRICT)
        nfa = {m.dedup_key() for m in run_nfa(cep, events)}
        ref = {m.dedup_key() for m in strict_contiguity_reference(cep, events)}
        assert nfa == ref

    def test_strict_with_predicates(self):
        rng = random.Random(31)
        events = [
            Event(rng.choice(["Q", "V"]), ts=i * MIN, value=rng.uniform(0, 100))
            for i in range(60)
        ]
        sea = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 WITHIN 6 MINUTES"
        )
        cep = from_sea_pattern(sea, STRICT)
        nfa = {m.dedup_key() for m in run_nfa(cep, events)}
        ref = {m.dedup_key() for m in strict_contiguity_reference(cep, events)}
        assert nfa == ref

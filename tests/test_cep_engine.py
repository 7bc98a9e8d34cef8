"""Tests for the FlinkCEP-analog NFA engine (substrate 2)."""

import pytest

from repro.asp.datamodel import Event
from repro.asp.operators.window import WindowSpec
from repro.asp.state import StateRegistry
from repro.asp.time import Watermark, minutes
from repro.cep.nfa import Nfa, run_nfa
from repro.cep.operator import CepOperator
from repro.cep.pattern_api import CepPattern, CepPatternBuilder, from_sea_pattern
from repro.cep.policies import STAM, STNM, STRICT
from repro.errors import PatternValidationError, TranslationError
from repro.sea.ast import Pattern, conj, disj, iteration, ref, seq
from repro.sea.parser import parse_pattern

MIN = minutes(1)
W = WindowSpec(size=5 * MIN, slide=MIN)


def ev(event_type, minute, value=0.0, id=1):
    return Event(event_type, ts=minute * MIN, id=id, value=value)


class TestBuilder:
    def test_simple_sequence(self):
        p = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
             .within(5 * MIN).build())
        assert len(p.stages) == 2
        assert p.stages[1].policy is STAM

    def test_policies_map_to_flink_operators(self):
        assert STAM.flink_operator == ".followedByAny()"
        assert STNM.flink_operator == ".followedBy()"
        assert STRICT.flink_operator == ".next()"

    def test_where_conjoins_predicates(self):
        p = (CepPatternBuilder.begin("a", "Q")
             .where(lambda e: e.value > 10)
             .where(lambda e: e.value < 20)
             .within(MIN).build())
        assert p.stages[0].accepts(Event("Q", ts=0, value=15))
        assert not p.stages[0].accepts(Event("Q", ts=0, value=25))

    def test_times_expands_stages(self):
        p = (CepPatternBuilder.begin("v", "V").times(3).within(MIN).build())
        assert [s.name for s in p.stages] == ["v[1]", "v[2]", "v[3]"]

    def test_within_required(self):
        with pytest.raises(PatternValidationError, match="within"):
            CepPatternBuilder.begin("a", "Q").build()

    def test_negation_position_validated(self):
        with pytest.raises(PatternValidationError, match="between two positive"):
            (CepPatternBuilder.begin("a", "Q").not_followed_by("b", "V")
             .within(MIN).build())

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PatternValidationError, match="duplicate"):
            (CepPatternBuilder.begin("a", "Q").followed_by_any("a", "V")
             .within(MIN).build())

    def test_describe(self):
        p = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
             .within(5 * MIN).build())
        text = p.describe()
        assert "begin(a:Q)" in text and ".followedByAny(b:V)" in text


class TestNfaSequence:
    def test_stam_branches_to_all_alternatives(self):
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
                   .within(5 * MIN).build())
        matches = run_nfa(pattern, [ev("Q", 0), ev("V", 1), ev("V", 2)])
        assert len(matches) == 2

    def test_stnm_takes_only_next_match(self):
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by("b", "V")
                   .within(5 * MIN).build())
        matches = run_nfa(pattern, [ev("Q", 0), ev("V", 1), ev("V", 2)])
        assert len(matches) == 1
        assert matches[0].events[1].ts == MIN

    def test_stnm_skips_irrelevant_events(self):
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by("b", "V")
                   .within(5 * MIN).build())
        matches = run_nfa(pattern, [ev("Q", 0), ev("W", 1), ev("V", 2)])
        assert len(matches) == 1

    def test_strict_requires_direct_succession(self):
        pattern = (CepPatternBuilder.begin("a", "Q").next("b", "V")
                   .within(5 * MIN).build())
        assert len(run_nfa(pattern, [ev("Q", 0), ev("V", 1)])) == 1
        assert run_nfa(pattern, [ev("Q", 0), ev("W", 1), ev("V", 2)]) == []

    def test_policy_hierarchy_stam_superset(self):
        """Paper Section 3.1.4: stam results are supersets of stnm and sc."""
        events = [ev("Q", 0), ev("W", 1), ev("V", 2), ev("V", 3), ev("Q", 4), ev("V", 5)]
        sea = Pattern(seq(ref("Q", "a"), ref("V", "b")), window=W)
        stam = {m.dedup_key() for m in run_nfa(from_sea_pattern(sea, STAM), events)}
        stnm = {m.dedup_key() for m in run_nfa(from_sea_pattern(sea, STNM), events)}
        strict = {m.dedup_key() for m in run_nfa(from_sea_pattern(sea, STRICT), events)}
        assert stnm <= stam
        assert strict <= stam

    def test_window_constraint_enforced(self):
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
                   .within(2 * MIN).build())
        assert run_nfa(pattern, [ev("Q", 0), ev("V", 5)]) == []

    def test_equal_timestamps_do_not_advance(self):
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
                   .within(5 * MIN).build())
        assert run_nfa(pattern, [ev("Q", 1), ev("V", 1)]) == []


class TestNfaIteration:
    def test_times_with_combinations(self):
        pattern = (CepPatternBuilder.begin("v", "V").times(2).within(5 * MIN).build())
        matches = run_nfa(pattern, [ev("V", 0), ev("V", 1), ev("V", 2)])
        assert len(matches) == 3  # C(3,2) under allowCombinations

    def test_iterative_condition_between_repetitions(self):
        pattern = (CepPatternBuilder.begin("v", "V")
                   .times(2, condition=lambda prev, cur: prev.value < cur.value)
                   .within(5 * MIN).build())
        events = [ev("V", 0, 5.0), ev("V", 1, 3.0), ev("V", 2, 9.0)]
        matches = run_nfa(pattern, events)
        got = {(m.events[0].value, m.events[1].value) for m in matches}
        assert got == {(5.0, 9.0), (3.0, 9.0)}


class TestNfaNegation:
    def test_blocker_prevents_completion(self):
        pattern = (CepPatternBuilder.begin("a", "Q").not_followed_by("x", "W")
                   .followed_by_any("b", "V").within(5 * MIN).build())
        assert run_nfa(pattern, [ev("Q", 0), ev("W", 1), ev("V", 2)]) == []
        assert len(run_nfa(pattern, [ev("Q", 0), ev("V", 2)])) == 1

    def test_blocker_after_completion_is_irrelevant(self):
        pattern = (CepPatternBuilder.begin("a", "Q").not_followed_by("x", "W")
                   .followed_by_any("b", "V").within(5 * MIN).build())
        matches = run_nfa(pattern, [ev("Q", 0), ev("V", 1), ev("W", 2)])
        assert len(matches) == 1

    def test_blocker_with_predicate(self):
        pattern = (CepPatternBuilder.begin("a", "Q")
                   .not_followed_by("x", "W").where(lambda e: e.value > 10)
                   .followed_by_any("b", "V").within(5 * MIN).build())
        harmless = [ev("Q", 0), ev("W", 1, value=5.0), ev("V", 2)]
        assert len(run_nfa(pattern, harmless)) == 1


class TestNfaState:
    def test_pruning_drops_expired_partial_matches(self):
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
                   .within(2 * MIN).build())
        nfa = Nfa(pattern)
        nfa.process(ev("Q", 0))
        assert nfa.live_partial_matches() == 1
        nfa.prune(watermark_ts=2 * MIN)
        assert nfa.live_partial_matches() == 0
        assert nfa.partials_pruned == 1

    def test_state_handle_tracks_partial_matches(self):
        registry = StateRegistry()
        handle = registry.create("pm", "nfa")
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
                   .within(5 * MIN).build())
        nfa = Nfa(pattern, state_handle=handle)
        nfa.process(ev("Q", 0))
        assert handle.items == 1
        assert handle.bytes_used > 0
        nfa.flush()
        assert handle.items == 0

    def test_partial_match_population_grows_with_selectivity(self):
        """The paper's core FCEP cost driver: live partial matches."""
        pattern = (CepPatternBuilder.begin("a", "Q").followed_by_any("b", "V")
                   .within(10 * MIN).build())
        nfa = Nfa(pattern)
        for i in range(10):
            nfa.process(ev("Q", i))
        assert nfa.live_partial_matches() == 10  # stam never consumes


class TestFromSeaPattern:
    def test_sequence_translation(self):
        sea = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        cep = from_sea_pattern(sea)
        assert [s.event_type for s in cep.stages] == ["Q", "V"]
        assert cep.window_size == 5 * MIN

    def test_single_alias_predicates_become_stage_filters(self):
        sea = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 10 WITHIN 5 MINUTES"
        )
        cep = from_sea_pattern(sea)
        assert cep.stages[0].accepts(Event("Q", ts=0, value=20))
        assert not cep.stages[0].accepts(Event("Q", ts=0, value=5))

    def test_cross_stage_predicates_enforced(self):
        sea = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.value < b.value WITHIN 5 MINUTES"
        )
        cep = from_sea_pattern(sea)
        ok = run_nfa(cep, [ev("Q", 0, 1.0), ev("V", 1, 2.0)])
        blocked = run_nfa(cep, [ev("Q", 0, 5.0), ev("V", 1, 2.0)])
        assert len(ok) == 1 and blocked == []

    def test_iteration_translation(self):
        sea = parse_pattern("PATTERN ITER3(V v) WITHIN 5 MINUTES")
        cep = from_sea_pattern(sea)
        assert len(cep.stages) == 3

    def test_nseq_translation(self):
        sea = parse_pattern("PATTERN SEQ(Q a, !W x, V b) WITHIN 5 MINUTES")
        cep = from_sea_pattern(sea)
        assert cep.stages[1].negated

    def test_conjunction_unsupported_as_in_table2(self):
        sea = Pattern(conj(ref("Q", "a"), ref("V", "b")), window=W)
        with pytest.raises(TranslationError, match="does not support AND"):
            from_sea_pattern(sea)

    def test_disjunction_unsupported_as_in_table2(self):
        sea = Pattern(disj(ref("Q", "a"), ref("V", "b")), window=W)
        with pytest.raises(TranslationError, match="does not support OR"):
            from_sea_pattern(sea)

    def test_kleene_plus_unsupported(self):
        sea = Pattern(iteration(ref("V", "v"), 2, minimum_occurrences=True), window=W)
        with pytest.raises(TranslationError, match="Kleene"):
            from_sea_pattern(sea)


class TestCepOperator:
    def test_unary_operator_in_pipeline(self):
        sea = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        op = CepOperator(from_sea_pattern(sea))
        op.setup(StateRegistry())
        out = []
        for event in [ev("Q", 0), ev("V", 1)]:
            out.extend(op.process_batch([event]))
        assert len(out) == 1
        assert op.matches == 1

    def test_keyed_operator_isolates_keys(self):
        sea = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        op = CepOperator(from_sea_pattern(sea), key_fn=lambda e: e.id)
        op.setup(StateRegistry())
        out = []
        for event in [ev("Q", 0, id=1), ev("V", 1, id=2), ev("V", 2, id=1)]:
            out.extend(op.process_batch([event]))
        assert len(out) == 1  # only the same-key pair

    def test_watermark_prunes_all_nfas(self):
        sea = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 2 MINUTES")
        op = CepOperator(from_sea_pattern(sea), key_fn=lambda e: e.id)
        op.setup(StateRegistry())
        op.process_batch([ev("Q", 0, id=1)])
        op.process_batch([ev("Q", 0, id=2)])
        assert op.live_partial_matches() == 2
        op.on_watermark(Watermark(5 * MIN))
        assert op.live_partial_matches() == 0


class TestPolicyConstruction:
    def test_stnm_constructible_from_stam(self):
        """Paper Section 3.1.4: stnm results can be constructed from the
        stam superset. Verified against the NFA's native stnm run."""
        import random
        from repro.cep.matches import stnm_from_stam

        rng = random.Random(13)
        events = [
            ev(rng.choice(["Q", "V", "W"]), i, value=rng.uniform(0, 100))
            for i in range(60)
        ]
        sea = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 6 MINUTES")
        stam_matches = run_nfa(from_sea_pattern(sea, STAM), events)
        native_stnm = run_nfa(from_sea_pattern(sea, STNM), events)
        constructed = stnm_from_stam(stam_matches)
        assert {m.dedup_key() for m in constructed} == {
            m.dedup_key() for m in native_stnm
        }

    def test_stnm_construction_three_way(self):
        import random
        from repro.cep.matches import stnm_from_stam

        rng = random.Random(29)
        events = [
            ev(rng.choice(["Q", "V", "W"]), i, value=rng.uniform(0, 100))
            for i in range(60)
        ]
        sea = parse_pattern("PATTERN SEQ(Q a, V b, W c) WITHIN 8 MINUTES")
        stam_matches = run_nfa(from_sea_pattern(sea, STAM), events)
        native_stnm = run_nfa(from_sea_pattern(sea, STNM), events)
        constructed = stnm_from_stam(stam_matches)
        assert {m.dedup_key() for m in constructed} == {
            m.dedup_key() for m in native_stnm
        }

"""The paper's claims, each as an executable assertion.

Every test here cites the paper section it checks. Where the claim is
about performance *shape*, the full-scale version lives in benchmarks/;
these are the semantic and structural claims that hold at any scale.
"""

import random

import pytest

from repro.asp.datamodel import Event
from repro.asp.operators.source import ListSource
from repro.asp.operators.window import WindowSpec
from repro.asp.time import minutes
from repro.cep.matches import dedup
from repro.cep.nfa import run_nfa
from repro.cep.pattern_api import from_sea_pattern
from repro.cep.policies import STAM, STNM, STRICT
from repro.errors import PatternValidationError, TranslationError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.ir import CountAggregate, JoinKind, UnionAll, WindowJoin
from repro.mapping.optimizer import build_plan
from repro.mapping.translator import translate
from repro.sea.ast import Pattern, conj, disj, iteration, ref, seq
from repro.sea.parser import parse_pattern
from repro.sea.semantics import evaluate_pattern, evaluate_window

MIN = minutes(1)
W = WindowSpec(size=5 * MIN, slide=MIN)


def stream(seed, n=40, types=("Q", "V", "W")):
    rng = random.Random(seed)
    return [
        Event(rng.choice(types), ts=i * MIN, id=rng.randint(1, 2),
              value=round(rng.uniform(0, 100), 2))
        for i in range(n)
    ]


def sources_for(events):
    by_type = {}
    for e in events:
        by_type.setdefault(e.event_type, []).append(e)
    return {t: ListSource(v, name=t, event_type=t) for t, v in by_type.items()}


def mapped(pattern, events, options=None):
    query = translate(pattern, sources_for(events), options or TranslationOptions())
    query.execute()
    return query.matches()


class TestSection2DataModel:
    def test_claim_event_is_tuple_with_timestamp(self):
        """§2 model 1: 'one can map an event of the CEP model to an ASP
        tuple with an additional timestamp attribute.'"""
        event = Event("Q", ts=5, id=1, value=2.0)
        as_tuple = event.as_dict()
        assert "ts" in as_tuple and as_tuple["type"] == "Q"

    def test_claim_match_carries_tsb_tse(self):
        """§2 model 1: each match is ce(e1..en, ts_b, ts_e) with the
        first/last contributing timestamps."""
        matches = mapped(
            parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE"),
            stream(1),
        )
        for match in matches:
            assert match.ts_b == min(e.ts for e in match.events)
            assert match.ts_e == max(e.ts for e in match.events)

    def test_claim_all_match_pairs_within_window(self):
        """§2 model 1: for each pair (e_i, e_j) of a match,
        |e_i.ts - e_j.ts| < W."""
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b, W c) WITHIN 4 MINUTES SLIDE 1 MINUTE"
        )
        for match in mapped(pattern, stream(2)):
            timestamps = [e.ts for e in match.events]
            assert max(timestamps) - min(timestamps) < 4 * MIN


class TestSection3Semantics:
    def test_claim_closure_property(self):
        """§3.1.1: operators return sets of events, not booleans (closure
        of SEA) — every oracle result is a composition of actual stream
        events."""
        events = stream(3)
        pool = set(id(e) for e in events)
        for match in evaluate_pattern(
            parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE"),
            events,
        ):
            assert all(id(e) in pool for e in match.events)

    def test_claim_window_mandatory(self):
        """§3.1.4 impact 4: 'the specification of a window operator is
        mandatory for every pattern using our semantics.'"""
        with pytest.raises(PatternValidationError):
            Pattern(root=seq(ref("Q", "a"), ref("V", "b")), window=None)

    def test_claim_overlapping_windows_cause_duplicates(self):
        """§3.1.4 impact 2: overlapping substreams detect duplicate
        matches (before elimination)."""
        events = [Event("Q", ts=10 * MIN), Event("V", ts=11 * MIN)]
        pattern = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE")
        raw = evaluate_pattern(pattern, events, deduplicate=False)
        deduped = evaluate_pattern(pattern, events)
        assert len(raw) > len(deduped) == 1

    def test_claim_and_commutative(self):
        """§3.2: 'A conjunction ... is associative and commutative.'"""
        events = stream(4)
        window = W
        a = Pattern(conj(ref("Q", "a"), ref("V", "b")), window=window)
        b = Pattern(conj(ref("V", "b"), ref("Q", "a")), window=window)
        left = {m.ordered_dedup_key() for m in evaluate_pattern(a, events)}
        right = {m.ordered_dedup_key() for m in evaluate_pattern(b, events)}
        assert left == right

    def test_claim_seq_not_commutative(self):
        """§3.2: 'a sequence is not commutative.'"""
        events = stream(5)
        a = Pattern(seq(ref("Q", "a"), ref("V", "b")), window=W)
        b = Pattern(seq(ref("V", "b"), ref("Q", "a")), window=W)
        left = {m.ordered_dedup_key() for m in evaluate_pattern(a, events)}
        right = {m.ordered_dedup_key() for m in evaluate_pattern(b, events)}
        assert left != right  # generically different on random streams

    def test_claim_nested_simplification(self):
        """§3.2 syntax: SEQ(T1, SEQ(T2, T3)) == SEQ(T1, T2, T3); same for
        AND and OR (associativity)."""
        events = stream(6)
        for outer, ctor in (("SEQ", seq), ("AND", conj), ("OR", disj)):
            if outer == "OR":
                nested = Pattern(
                    disj(ref("Q", "a"), disj(ref("V", "b"), ref("W", "c"))), window=W
                )
                flat = Pattern(
                    disj(ref("Q", "a"), ref("V", "b"), ref("W", "c")), window=W
                )
            else:
                nested = Pattern(
                    ctor(ref("Q", "a"), ctor(ref("V", "b"), ref("W", "c"))), window=W
                )
                flat = Pattern(
                    ctor(ref("Q", "a"), ref("V", "b"), ref("W", "c")), window=W
                )
            left = {m.dedup_key() for m in evaluate_pattern(nested, events)}
            right = {m.dedup_key() for m in evaluate_pattern(flat, events)}
            assert left == right, outer

    def test_claim_iteration_bounded_not_kleene(self):
        """§3.2: 'in contrast to the Kleene* and Kleene+ operator ... the
        SEA iteration operator is bounded to the exact occurrence of m
        events.'"""
        events = [Event("V", ts=i * MIN) for i in range(4)]
        bounded = Pattern(iteration(ref("V", "v"), 3), window=W)
        matches = evaluate_window(bounded, events)
        assert all(len(m) == 3 for m in matches)

    def test_claim_stam_superset_of_other_policies(self):
        """§3.1.4: 'The matches derived by skip-till-any-match are
        supersets of these policies.'"""
        events = stream(7)
        sea = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        stam = {m.dedup_key() for m in run_nfa(from_sea_pattern(sea, STAM), events)}
        for policy in (STNM, STRICT):
            subset = {
                m.dedup_key() for m in run_nfa(from_sea_pattern(sea, policy), events)
            }
            assert subset <= stam, policy


class TestSection4Mapping:
    def test_claim_table1_join_kinds(self):
        """Table 1: AND -> Cartesian product, SEQ -> Theta Join, OR ->
        union, ITER -> self-join chain / aggregation, with O3 turning
        joins into Equi Joins."""
        and_plan = build_plan(
            parse_pattern("PATTERN AND(Q a, V b) WITHIN 5 MINUTES")
        )
        assert and_plan.root.kind is JoinKind.CROSS
        seq_plan = build_plan(
            parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        )
        assert seq_plan.root.kind is JoinKind.THETA
        or_plan = build_plan(parse_pattern("PATTERN OR(Q a, V b) WITHIN 5 MINUTES"))
        assert isinstance(or_plan.root, UnionAll)
        iter_plan = build_plan(parse_pattern("PATTERN ITER3(V v) WITHIN 5 MINUTES"))
        assert sum(1 for n in iter_plan.root.walk() if isinstance(n, WindowJoin)) == 2
        o2_plan = build_plan(
            parse_pattern("PATTERN ITER3(V v) WITHIN 5 MINUTES"),
            TranslationOptions.o2(),
        )
        assert isinstance(o2_plan.root, CountAggregate)
        o3_plan = build_plan(
            parse_pattern("PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 5 MINUTES")
        )
        assert o3_plan.root.kind is JoinKind.EQUI

    def test_claim_semantic_equivalence_after_dedup(self):
        """§4 (after Negri et al.): 'two queries are semantically
        equivalent if, for all input tuples, the output tuples obtained
        are equivalent after ... eliminating duplicates.' Mapped query ==
        formal semantics on every tested stream."""
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.value < b.value "
            "WITHIN 5 MINUTES SLIDE 1 MINUTE"
        )
        for seed in range(5):
            events = stream(seed)
            want = {m.dedup_key() for m in evaluate_pattern(pattern, events)}
            got = {m.dedup_key() for m in dedup(mapped(pattern, events))}
            assert got == want

    def test_claim_seq_n_uses_n_minus_1_joins(self):
        """§4.2.2: SEQ(n) translates to n-1 consecutive Window Joins on
        non-Beam systems."""
        for n, types in ((3, "Q a, V b, W c"), (4, "Q a, V b, W c, PM10 d")):
            plan = build_plan(
                parse_pattern(f"PATTERN SEQ({types}) WITHIN 5 MINUTES")
            )
            joins = [x for x in plan.root.walk() if isinstance(x, WindowJoin)]
            assert len(joins) == n - 1

    def test_claim_o1_no_duplicates(self):
        """§4.3.1: 'the Interval Join detects all matches and prevents the
        creation of duplicates.'"""
        pattern = parse_pattern("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES SLIDE 1 MINUTE")
        for seed in range(3):
            events = stream(seed)
            matches = mapped(pattern, events, TranslationOptions.o1())
            keys = [m.dedup_key() for m in matches]
            assert len(keys) == len(set(keys))
            want = {m.dedup_key() for m in evaluate_pattern(pattern, events)}
            assert set(keys) == want

    def test_claim_o2_approximate_one_tuple_per_window(self):
        """§4.3.2: 'aggregations return one tuple ... per window instead
        of multiple tuples with the composition of events.'"""
        events = [Event("V", ts=i * MIN) for i in range(4)]
        pattern = parse_pattern("PATTERN ITER2(V v) WITHIN 10 MINUTES SLIDE 10 MINUTES")
        exact = evaluate_pattern(pattern, events)
        approx = mapped(pattern, events, TranslationOptions.o2())
        assert len(exact) > len(approx) == 1
        (aggregate,) = approx
        assert aggregate.events[0].value >= 2  # the count, not a composition

    def test_claim_o2_no_kleene_star(self):
        """§4.3.2: 'ASP window aggregations do not trigger a window that
        has no event assigned. Thus, O2 cannot support Kleene*.' A window
        with zero qualifying events emits nothing."""
        events = [Event("V", ts=MIN, value=99.0)]  # filtered out below
        pattern = parse_pattern(
            "PATTERN ITER1(V v) WHERE v.value < 10 WITHIN 5 MINUTES SLIDE 1 MINUTE"
        )
        approx = mapped(pattern, events, TranslationOptions.o2())
        assert approx == []

    def test_claim_fcep_gap_and_or(self):
        """Table 2 / §5.1.2: the mapping enables the entire SEA operator
        set; FCEP cannot express AND or OR."""
        for text in ("PATTERN AND(Q a, V b) WITHIN 5 MINUTES",
                     "PATTERN OR(Q a, V b) WITHIN 5 MINUTES"):
            pattern = parse_pattern(text)
            assert mapped(pattern, stream(9)) is not None  # FASP runs it
            with pytest.raises(TranslationError):
                from_sea_pattern(pattern)

    def test_claim_union_before_unary_cep_operator(self):
        """§5.1.2: 'The unary CEP operator can only be applied to a single
        input stream, which requires the previous union of all input
        streams' — the harness builds exactly that topology."""
        from repro.experiments.common import Scale, qnv_workload, seq2_pattern
        from repro.runtime.harness import run_fcep

        streams = qnv_workload(Scale(events=1000, sensors=1))
        pattern = seq2_pattern(0.2, window_minutes=5)
        _m, _sink, result = run_fcep(pattern, streams)
        assert any("union" in name for name in result.stage_seconds)
        cep_stages = [n for n in result.stage_seconds if n.startswith("cep[")]
        assert len(cep_stages) == 1  # one monolithic operator

    def test_claim_decomposition_multiple_operators(self):
        """§1/§7: 'our mapping decomposes the pattern workload into
        multiple operators' — the mapped SEQ(3) runs >= 3 stateful/
        stream operators instead of one."""
        plan = build_plan(parse_pattern("PATTERN SEQ(Q a, V b, W c) WITHIN 5 MINUTES"))
        assert len(plan.operators()) >= 5  # 3 scans + 2 joins

    def test_claim_sliding_join_retests_pairs_per_overlapping_window(self):
        """§3.1.4/§4.3.1, as a cost contract: the sliding-window join
        joins every window independently, so it tests Σ |L_w|·|R_w| pairs
        over fired windows and keys — each pair once per window that
        contains it, ≈ W/slide times what the interval join (O1), which
        probes once per arriving event, tests for the same matches. The
        optimizer, the advisor and EXPERIMENTS.md are calibrated on this
        constant; a faster pair loop must not change the count."""
        from repro.asp.operators.join import IntervalJoin, SlidingWindowJoin

        size, slide = 10 * MIN, MIN
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES SLIDE 1 MINUTE"
        )
        events = stream(4, n=240, types=("Q", "V"))

        def run(options):
            query = translate(pattern, sources_for(events), options)
            query.execute()
            (join,) = [
                node.payload
                for node in query.env.flow.nodes.values()
                if isinstance(node.payload, (SlidingWindowJoin, IntervalJoin))
            ]
            return join, {m.dedup_key() for m in query.matches()}

        sliding, sliding_matches = run(TranslationOptions())
        interval, interval_matches = run(TranslationOptions.o1())
        assert isinstance(sliding, SlidingWindowJoin) and isinstance(interval, IntervalJoin)

        timestamps = [e.ts for e in events]
        first_k = -(-(min(timestamps) - size + 1) // slide)
        expected = 0
        for k in range(first_k, max(timestamps) // slide + 1):
            window = [e for e in events if k * slide <= e.ts < k * slide + size]
            for key in {e.id for e in window}:
                lefts = sum(1 for e in window if e.event_type == "Q" and e.id == key)
                rights = sum(1 for e in window if e.event_type == "V" and e.id == key)
                expected += lefts * rights
        assert sliding.pairs_tested == expected

        ratio = sliding.pairs_tested / interval.pairs_tested
        assert 0.75 * (size / slide) <= ratio <= 1.25 * (size / slide)
        assert sliding_matches == interval_matches
        assert sliding_matches == {m.dedup_key() for m in evaluate_pattern(pattern, events)}

    def test_claim_guarded_sliding_join_tests_only_rights_inside_the_guard(self):
        """§4.1/Listing 6, as a cost contract: NSEQ's join keeps a pair
        only when ``a_ts >= e3.ts``, and a window's rights are sorted by
        time, so each in-window left tests only the rights up to its
        ``a_ts`` — Σ |{r ∈ R_w : r.ts <= l.a_ts}| over fired windows, keys
        and in-window lefts, not Σ |L_w|·|R_w|. A guarded pair is still
        re-tested in every window that contains it."""
        from repro.asp.operators.join import SlidingWindowJoin

        size, slide = 10 * MIN, MIN
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, !W x, V b) WITHIN 10 MINUTES SLIDE 1 MINUTE"
        )
        events = stream(5, n=240)
        query = translate(pattern, sources_for(events), TranslationOptions())
        query.execute()
        (join,) = [
            node.payload
            for node in query.env.flow.nodes.values()
            if isinstance(node.payload, SlidingWindowJoin)
        ]

        def a_ts(left):
            # The next blocker within W, else the no-blocker sentinel.
            blockers = [
                e.ts for e in events
                if e.event_type == "W" and left.ts < e.ts <= left.ts + size
            ]
            return min(blockers, default=left.ts + size)

        timestamps = [e.ts for e in events]
        first_k = -(-(min(timestamps) - size + 1) // slide)
        expected = every_pair = 0
        for k in range(first_k, max(timestamps) // slide + 1):
            window = [e for e in events if k * slide <= e.ts < k * slide + size]
            lefts = [e for e in window if e.event_type == "Q"]
            rights = [e.ts for e in window if e.event_type == "V"]
            expected += sum(1 for left in lefts for ts in rights if ts <= a_ts(left))
            every_pair += len(lefts) * len(rights)
        assert join.pairs_tested == expected < every_pair
        assert {m.dedup_key() for m in query.matches()} == {
            m.dedup_key() for m in evaluate_pattern(pattern, events)
        }

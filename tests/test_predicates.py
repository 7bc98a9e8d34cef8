"""Tests for the predicate expression trees."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.asp.datamodel import Event
from repro.asp.operators.filter import FilterOperator
from repro.asp.operators.source import ListSource
from repro.asp.runtime.backends.sharded import ShardedBackend
from repro.errors import PatternValidationError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern
from repro.sea.predicates import (
    And,
    Arith,
    Attr,
    Compare,
    Const,
    Not,
    Or,
    TruePredicate,
    attr,
    classify_conjuncts,
    cmp,
    compile_mask,
    conjunction_of,
    const,
)


def binding(**events):
    return events


Q = Event("Q", ts=10, id=1, value=50.0)
V = Event("V", ts=20, id=1, value=30.0)


class TestExpressions:
    def test_const(self):
        assert Const(5).evaluate({}) == 5
        assert Const(5).aliases() == frozenset()

    def test_attr_reads_binding(self):
        assert Attr("q", "value").evaluate({"q": Q}) == 50.0
        assert Attr("q", "ts").evaluate({"q": Q}) == 10

    def test_attr_unbound_alias_raises(self):
        with pytest.raises(PatternValidationError, match="unbound alias"):
            Attr("x", "value").evaluate({"q": Q})

    @pytest.mark.parametrize("op,expected", [("+", 8), ("-", 2), ("*", 15), ("/", 5 / 3)])
    def test_arith(self, op, expected):
        assert Arith(op, Const(5), Const(3)).evaluate({}) == expected

    def test_arith_unknown_op(self):
        with pytest.raises(ValueError):
            Arith("%", Const(1), Const(2))

    def test_nested_arith_aliases(self):
        expr = Arith("+", Attr("a", "value"), Attr("b", "value"))
        assert expr.aliases() == {"a", "b"}

    def test_render(self):
        expr = Arith("+", Attr("a", "value"), Const(3))
        assert expr.render() == "(a.value + 3)"


class TestCompare:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [("=", 1, 1, True), ("==", 1, 2, False), ("!=", 1, 2, True),
         ("<", 1, 2, True), ("<=", 2, 2, True), (">", 1, 2, False),
         (">=", 3, 2, True)],
    )
    def test_all_operators(self, op, left, right, expected):
        assert Compare(op, Const(left), Const(right)).evaluate({}) is expected

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            Compare("<>", Const(1), Const(2))

    def test_equi_join_detection(self):
        comp = Compare("=", Attr("a", "id"), Attr("b", "id"))
        assert comp.equi_join_attributes() == (("a", "id"), ("b", "id"))

    def test_equi_join_requires_distinct_aliases(self):
        comp = Compare("=", Attr("a", "id"), Attr("a", "value"))
        assert comp.equi_join_attributes() is None

    def test_equi_join_requires_equality(self):
        comp = Compare("<", Attr("a", "id"), Attr("b", "id"))
        assert comp.equi_join_attributes() is None

    def test_equi_join_requires_attrs_not_consts(self):
        comp = Compare("=", Attr("a", "id"), Const(5))
        assert comp.equi_join_attributes() is None


class TestBooleanCombinators:
    def test_and_or_not(self):
        t, f = Compare("=", Const(1), Const(1)), Compare("=", Const(1), Const(2))
        assert And(t, t).evaluate({})
        assert not And(t, f).evaluate({})
        assert Or(f, t).evaluate({})
        assert not Or(f, f).evaluate({})
        assert Not(f).evaluate({})

    def test_true_predicate(self):
        assert TruePredicate().evaluate({})
        assert TruePredicate().conjuncts() == []

    def test_conjuncts_flatten_nested_ands(self):
        a = Compare("=", Const(1), Const(1))
        b = Compare("=", Const(2), Const(2))
        c = Compare("=", Const(3), Const(3))
        nested = And(And(a, b), c)
        assert nested.conjuncts() == [a, b, c]

    def test_or_is_single_conjunct(self):
        a = Compare("=", Const(1), Const(1))
        assert len(Or(a, a).conjuncts()) == 1

    def test_conjunction_of_round_trips(self):
        a = Compare("=", Attr("x", "ts"), Const(1))
        b = Compare("<", Attr("y", "ts"), Const(2))
        rebuilt = conjunction_of([a, b])
        assert rebuilt.conjuncts() == [a, b]

    def test_conjunction_of_empty_is_true(self):
        assert isinstance(conjunction_of([]), TruePredicate)

    def test_conjunction_of_skips_true(self):
        a = Compare("=", Const(1), Const(1))
        assert conjunction_of([TruePredicate(), a]) is a


class TestClassification:
    def test_splits_single_equi_multi(self):
        where = And(
            And(
                Compare(">", Attr("q", "value"), Const(10)),       # single
                Compare("=", Attr("q", "id"), Attr("v", "id")),    # equi
            ),
            Compare("<", Attr("q", "value"), Attr("v", "value")),  # multi
        )
        single, equi, multi = classify_conjuncts(where)
        assert list(single) == ["q"]
        assert len(single["q"]) == 1
        assert len(equi) == 1
        assert len(multi) == 1

    def test_constant_conjunct_goes_to_empty_alias(self):
        where = Compare("=", Const(1), Const(1))
        single, equi, multi = classify_conjuncts(where)
        assert "" in single

    def test_true_predicate_classifies_empty(self):
        single, equi, multi = classify_conjuncts(TruePredicate())
        assert not single and not equi and not multi

    def test_inequality_between_aliases_is_multi(self):
        where = Compare("!=", Attr("a", "id"), Attr("b", "id"))
        _single, equi, multi = classify_conjuncts(where)
        assert not equi and len(multi) == 1


def _e(attribute):
    return Attr("e", attribute)


#: Every event carries ``lane`` and ``tag``.
TAGGED = [
    Event("Q", ts=10, id=1, value=50.0, lat=1.0, lon=2.0, attrs={"lane": 2, "tag": "x"}),
    Event("V", ts=20, id=2, value=30.0, lat=4.0, attrs={"lane": 5, "tag": "y"}),
    Event("Q", ts=30, id=3, value=5.0, lat=0.5, attrs={"lane": 3, "tag": "x"}),
]
#: The low-valued Q and the PM10 event carry neither.
MIXED = TAGGED[:2] + [Event("Q", ts=40, id=4, value=5.0), Event("PM10", ts=50, id=5, value=70.0)]

ROW_FILTER_CASES = {
    "no-conjuncts": [],
    "true": [TruePredicate()],
    "single-compare": [Compare(">", Attr("q", "value"), Const(40))],
    "const-on-the-left": [Compare("<=", Const(30), _e("value"))],
    "const-only": [Compare("<", Const(1), Const(2))],
    "attr-vs-attr": [Compare(">", _e("value"), _e("lat"))],
    "type-string": [Compare("=", _e("type"), Const("Q"))],
    "event_type-string": [Compare("!=", _e("event_type"), Const("V"))],
    "non-core-numeric": [Compare(">=", _e("lane"), Const(3))],
    "non-core-string": [Compare("==", _e("tag"), Const("x"))],
    "arith-core": [
        Compare(">", Arith("+", Arith("*", _e("value"), Const(2)), _e("id")), Const(62))
    ],
    "arith-division-by-a-zero-slot": [
        Compare("<", Arith("/", _e("value"), _e("lat")), Const(20))
    ],
    "arith-non-core": [Compare("<", Arith("-", _e("lane"), Const(1)), _e("id"))],
    "and-or-not": [
        And(
            Or(Compare("<", _e("value"), Const(10)), Compare(">", _e("ts"), Const(15))),
            Not(Compare("=", _e("id"), Const(2))),
        )
    ],
    "or-left-holds-never-reads-the-right": [
        Or(Compare(">=", _e("value"), Const(0)), Compare(">", _e("lane"), Const(3)))
    ],
    "or-left-fails-reads-the-right": [
        Or(Compare(">", _e("value"), Const(40)), Compare(">", _e("lane"), Const(3)))
    ],
    "earlier-conjunct-shields-a-later-one": [
        Compare(">", _e("value"), Const(20)),
        Compare(">", _e("lane"), Const(1)),
    ],
    "one-alias-per-conjunct": [
        Compare(">", Attr("v", "value"), Const(10)),
        Compare("<", Attr("v[1]", "ts"), Const(45)),
    ],
}


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # the error is the outcome under comparison
        return type(exc), str(exc)


class TestGeneratedRowFilter:
    """``compile_mask`` — the one compiled predicate form — against the
    tree-walking ``evaluate`` it replaces in the batch engine."""

    @pytest.mark.parametrize("events", [TAGGED, MIXED], ids=["tagged", "mixed"])
    @pytest.mark.parametrize("case", ROW_FILTER_CASES)
    def test_agrees_with_evaluate(self, case, events):
        conjuncts = ROW_FILTER_CASES[case]
        keep = compile_mask(conjuncts)

        def reference():
            return [
                e for e in events
                if all(p.evaluate({a: e for a in p.aliases()}) for p in conjuncts)
            ]

        want = _outcome(reference)
        got = _outcome(lambda: keep(events))
        assert got == want
        if isinstance(want, list):
            assert all(a is b for a, b in zip(got, want))
        if case == "no-conjuncts":
            assert got == events
        if case.startswith("or-left") and events is MIXED:
            assert isinstance(want, list) == (case == "or-left-holds-never-reads-the-right")

    def test_opaque_node_has_no_generated_form_and_the_callable_runs(self):
        from tests.test_join_probe import ValueBelow

        conjuncts = [Compare(">", _e("ts"), Const(10)), ValueBelow("e", 40)]
        assert compile_mask(conjuncts) is None

        def check(event):
            return all(p.evaluate({"e": event}) for p in conjuncts)

        check.keep = compile_mask(conjuncts)
        operator = FilterOperator(check)
        assert operator.process_batch(MIXED) == [MIXED[1], MIXED[2]]
        assert (operator.passed, operator.dropped, operator.work_units) == (2, 2, 4)

    def test_generated_filter_survives_a_copy_and_a_sharded_run(self):
        pattern = parse_pattern(
            "PATTERN SEQ(Q a, V b) WHERE a.id = b.id AND a.value > 40 "
            "AND b.value < 35 WITHIN 5 MINUTES"
        )
        streams = {
            t: [
                Event(t, ts=60_000 * i, id=i % 4, value=float((i * 37 + len(t)) % 90))
                for i in range(200)
            ]
            for t in ("Q", "V")
        }

        def run(**kwargs):
            sources = {t: ListSource(list(evs), name=t, event_type=t) for t, evs in streams.items()}
            query = translate(pattern, sources, TranslationOptions.o3(), analyze=False)
            result = query.execute(**kwargs)
            assert not result.failed, result.failure
            return query, result, sorted(m.dedup_key() for m in query.matches())

        query, _result, want = run(batch_size=1)
        assert want
        filters = [
            node.operator
            for node in query.env.flow.operator_nodes()
            if type(node.operator) is FilterOperator
        ]
        assert filters and all(op.keep is not None for op in filters)
        for op in filters:
            clone = copy.deepcopy(op)
            assert clone.keep(streams["Q"]) == op.keep(streams["Q"])
        _query, result, got = run(
            backend=ShardedBackend(shards=2, key_attribute="id"),
            batch_size=64,
        )
        assert result.metadata["shards"] == 2
        assert got == want


class TestConvenienceConstructors:
    def test_attr_const_cmp(self):
        pred = cmp("<", attr("q", "value"), const(100))
        assert pred.evaluate({"q": Q})


class TestEvaluationProperties:
    @given(x=st.floats(allow_nan=False, allow_infinity=False, width=32),
           y=st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_comparison_trichotomy(self, x, y):
        lt = Compare("<", Const(x), Const(y)).evaluate({})
        eq = Compare("=", Const(x), Const(y)).evaluate({})
        gt = Compare(">", Const(x), Const(y)).evaluate({})
        assert sum([lt, eq, gt]) == 1

    @given(v=st.floats(min_value=-1e6, max_value=1e6))
    def test_not_is_involution(self, v):
        pred = Compare("<", Const(v), Const(0))
        assert Not(Not(pred)).evaluate({}) == pred.evaluate({})

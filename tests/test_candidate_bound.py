"""The sliding join's candidate bound.

A conjunct that compares the right alias's own ``ts`` with a left
attribute — NSEQ's ``a_ts >= e3.ts`` guard, or ``R.ts < L.x`` written by
hand — holds for a prefix of the right side's time-sorted window slice.
The lowering lifts it out of the pair test
(:func:`repro.mapping.translator.candidate_bound`) and the join bisects
for the end of each left's candidates instead of testing it per pair.
Every case here is held to the ``sea.semantics`` oracle at batch sizes 1
and 256, serial and sharded (keyed on ``id``: the oracle then runs on
each key's substream), and a run resumed from a mid-stream checkpoint to
the run that never stopped.
"""

import random

import pytest

from repro.asp.datamodel import Event
from repro.asp.operators.join import CandidateBound, SlidingWindowJoin
from repro.asp.operators.source import ListSource
from repro.asp.runtime import FaultPlan, FaultSpec, ShardedBackend, run_report
from repro.asp.time import minutes
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.build import build_plan
from repro.mapping.optimizer.ir import WindowJoin
from repro.mapping.translator import candidate_bound, translate
from repro.sea.parser import parse_pattern
from repro.sea.semantics import evaluate_pattern

MIN = minutes(1)

NSEQ = "PATTERN SEQ(Q a, !W x, V b) WITHIN 6 MINUTES SLIDE 1 MINUTE"

BACKENDS = ("serial", "sharded")

#: What a resumed run may report differently: timings and state peaks.
NOT_COUNTS = ("latency_s", "state_peak_bytes", "state_peak_items")


def sliding_joins(query):
    return [
        node.payload
        for node in query.env.flow.nodes.values()
        if isinstance(node.payload, SlidingWindowJoin)
    ]


def run(text, events, backend, batch_size, lateness=0, **execute):
    """The pattern over one shared arrival-ordered source, unkeyed on
    the serial backend and keyed on ``id`` on the sharded one."""
    pattern = parse_pattern(text)
    source = ListSource(list(events), name="stream")
    sources = {t: source for t in pattern.distinct_event_types()}
    sharded = backend == "sharded"
    options = TranslationOptions.o3() if sharded else TranslationOptions()
    query = translate(pattern, sources, options)
    (join,) = sliding_joins(query)
    assert isinstance(join.theta.candidate_bound, CandidateBound)
    result = query.execute(
        batch_size=batch_size,
        backend=ShardedBackend(shards=2, key_attribute="id") if sharded else None,
        max_out_of_orderness=lateness,
        **execute,
    )
    assert not result.failed, result.failure
    return query, result


def oracle(text, events, backend):
    pattern = parse_pattern(text)
    ordered = sorted(events, key=lambda e: e.ts)
    if backend == "serial":
        return {m.dedup_key() for m in evaluate_pattern(pattern, ordered)}
    return {
        m.dedup_key()
        for key in {e.id for e in ordered}
        for m in evaluate_pattern(pattern, [e for e in ordered if e.id == key])
    }


def assert_oracle(text, events, lateness=0):
    """Every backend and batch size finds the oracle's matches; returns
    the serial run's match keys."""
    found = {}
    for backend in BACKENDS:
        want = oracle(text, events, backend)
        for batch_size in (1, 256):
            query, _result = run(text, events, backend, batch_size, lateness)
            got = {m.dedup_key() for m in query.matches()}
            assert got == want, (backend, batch_size)
        found[backend] = want
    return found["serial"]


def identities(keys):
    """Match keys as ``(type, ts, id)`` per event."""
    return {tuple(event[:3] for event in key) for key in keys}


def test_a_right_exactly_at_a_ts_joins():
    """The guard is ``a_ts >= e3.ts``: a blocker at e3's own timestamp
    does not block (Eq. 14's open interval)."""
    events = [
        Event("Q", 0, 1, 1.0),
        Event("V", MIN, 1, 1.0),
        Event("W", 2 * MIN, 1, 1.0),
        Event("V", 2 * MIN, 1, 1.0),
        Event("V", 3 * MIN, 1, 1.0),
    ]
    assert identities(assert_oracle(NSEQ, events)) == {
        (("Q", 0, 1), ("V", MIN, 1)),
        (("Q", 0, 1), ("V", 2 * MIN, 1)),
    }


def test_every_right_of_a_tie_at_the_bound_joins():
    q = Event("Q", 0, 1, 1.0)
    tied = [Event("V", 3 * MIN, 1, float(i)) for i in range(3)]
    events = [q, Event("W", 3 * MIN, 1, 1.0), *tied, Event("V", 4 * MIN, 1, 1.0)]
    query, _result = run(NSEQ, events, "serial", 1)
    assert sorted(m.events[1].value for m in query.matches()) == [0.0, 1.0, 2.0]
    assert_oracle(NSEQ, events)


def test_a_left_without_blocker_joins_up_to_the_window():
    """No blocker within W: ``a_ts = ts + W``, so every right the
    window admits is a candidate."""
    events = [Event("Q", 0, 1, 1.0)] + [Event("V", i * MIN, 1, 1.0) for i in range(1, 8)]
    query, _result = run(NSEQ, events, "serial", 256)
    assert [m.events[1].ts for m in query.matches()] == [i * MIN for i in range(1, 6)]
    assert_oracle(NSEQ, events)


def mixed(seed, n=160):
    rng = random.Random(seed)
    return [
        Event(rng.choice("QVWV"), ts=i * MIN // 2, id=rng.randint(1, 3),
              value=round(rng.uniform(0, 100), 2))
        for i in range(n)
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_disorder_within_lateness(seed):
    """Rights arriving up to the lateness late land mid-buffer, and the
    bisect still sees a time-sorted slice. Only the rights are shuffled:
    the next-occurrence UDF resolves a left with the first blocker to
    *arrive*, so a left or blocker out of order gives it the wrong
    ``a_ts`` with or without the bound."""
    events = mixed(seed)
    rng = random.Random(seed)
    delayed = [
        (e.ts + (rng.randint(0, 2 * MIN) if e.event_type == "V" else 0), i, e)
        for i, e in enumerate(events)
    ]
    arrival = [e for _arrives, _i, e in sorted(delayed)]
    assert arrival != events
    assert assert_oracle(NSEQ, arrival, lateness=2 * MIN)


def test_a_strict_guard_written_by_hand():
    """``b.ts < a.value`` bounds with ``bisect_left``: a right exactly
    at the bound does not join; ``<=`` takes it."""
    q = Event("Q", 0, 1, float(3 * MIN))
    events = [q] + [Event("V", i * MIN, 1, 1.0) for i in range(1, 6)]
    strict = (
        "PATTERN SEQ(Q a, V b) WHERE b.ts < a.value WITHIN 6 MINUTES SLIDE 1 MINUTE"
    )
    query, _result = run(strict, events, "serial", 1)
    assert sliding_joins(query)[0].theta.candidate_bound == CandidateBound("value", True)
    assert [m.events[1].ts for m in query.matches()] == [MIN, 2 * MIN]
    assert_oracle(strict, events)
    query, _result = run(strict.replace("<", "<="), events, "serial", 1)
    assert [m.events[1].ts for m in query.matches()] == [MIN, 2 * MIN, 3 * MIN]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_resumed_run_matches_and_counts_as_one_that_never_stopped(backend):
    """The bound is configuration, not state: a run that crashes after a
    checkpoint and resumes from it reports the same matches and counters
    as the run that did not stop."""
    events = mixed(3, n=400)
    clean, clean_result = run(NSEQ, events, backend, 16, checkpoint_interval=50)
    crashed, crashed_result = run(
        NSEQ, events, backend, 16,
        checkpoint_interval=50,
        # Past the first cut, inside shard 0 (about a third of the events).
        fault_plan=FaultPlan((FaultSpec("crash", at_event=90, shard=0),)),
    )
    assert crashed_result.metrics["recovery"]["restarts"]
    assert [m.dedup_key() for m in crashed.matches()] == [
        m.dedup_key() for m in clean.matches()
    ]

    def counts(result):
        return {
            scope: {name: value for name, value in op.items() if name not in NOT_COUNTS}
            for scope, op in run_report(result)["operators"].items()
        }

    assert counts(crashed_result) == counts(clean_result)


# -- which conjunct bounds ------------------------------------------------------


def join_of(text, options=None):
    plan = build_plan(parse_pattern(text), options or TranslationOptions())
    (join,) = [n for n in plan.root.walk() if isinstance(n, WindowJoin)]
    return join


@pytest.mark.parametrize(
    "where, rendered",
    [
        ("a.value >= b.ts", "b.ts <= a.value"),
        ("b.ts <= a.value", "b.ts <= a.value"),
        ("a.value > b.ts", "b.ts < a.value"),
        ("b.ts < a.value", "b.ts < a.value"),
    ],
)
def test_the_four_spellings_of_a_bound(where, rendered):
    join = join_of(f"PATTERN SEQ(Q a, V b) WHERE {where} WITHIN 6 MINUTES")
    index, guard, bound = candidate_bound(join)
    assert join.extra_theta[index].render() == where
    assert guard.render() == rendered
    assert bound == CandidateBound("value", strict="<=" not in rendered)


@pytest.mark.parametrize(
    "text, options",
    [
        # Not the right alias's ts, or not a left attribute.
        ("PATTERN SEQ(Q a, V b) WHERE b.value <= a.value WITHIN 6 MINUTES", None),
        ("PATTERN SEQ(Q a, V b) WHERE b.ts <= 5 WITHIN 6 MINUTES", None),
        ("PATTERN SEQ(Q a, V b) WHERE a.ts <= b.value WITHIN 6 MINUTES", None),
        ("PATTERN SEQ(Q a, V b) WHERE b.ts >= a.value WITHIN 6 MINUTES", None),
        # An interval join probes from both sides.
        ("PATTERN SEQ(Q a, V b) WHERE b.ts <= a.value WITHIN 6 MINUTES",
         TranslationOptions.o1()),
    ],
)
def test_no_bound(text, options):
    assert candidate_bound(join_of(text, options)) is None


def test_a_composed_input_has_no_bound():
    plan = build_plan(
        parse_pattern("PATTERN SEQ(Q a, V b, W c) WHERE c.ts <= a.value WITHIN 6 MINUTES"),
        TranslationOptions(),
    )
    joins = [n for n in plan.root.walk() if isinstance(n, WindowJoin)]
    assert len(joins) == 2
    assert all(candidate_bound(join) is None for join in joins)


def test_a_handwritten_theta_tests_every_pair():
    from repro.asp.operators.window import WindowSpec
    from repro.asp.state import StateRegistry
    from repro.asp.time import Watermark

    join = SlidingWindowJoin(WindowSpec(10, 5), theta=lambda left, right: left.ts < right.ts)
    join.setup(StateRegistry())
    join.process_batch([Event("Q", 1, 1, 1.0), Event("Q", 2, 1, 1.0)], 0)
    join.process_batch([Event("V", 3, 1, 1.0), Event("V", 4, 1, 1.0)], 1)
    join.on_watermark(Watermark(100))
    assert join.pairs_tested == 2 * 2 * 2  # two windows hold all four

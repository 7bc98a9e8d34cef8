"""The interval join's generated probe at every batch size.

``IntervalJoin.process_batch`` runs a probe function generated from the
plan (shapes, order, residual conjuncts and composition inlined;
``repro.asp.operators.join.probe_source``). How the stream is cut into
batches must change nothing observable: each join's emission *list*
(order included), its counters and every slot of every emitted match
agree at batch sizes 1, 7, 64 and 256; the match set is the one
``sea.semantics`` gives, and a bad event raises what the ``theta``
closure raises.
"""

import copy
import dataclasses
import logging
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.graph import clone_dataflow
from repro.asp.operators import join as join_module
from repro.asp.operators.join import IntervalJoin, ProbePlan, probe_source
from repro.asp.operators.sink import CollectSink
from repro.asp.operators.source import ListSource
from repro.asp.operators.window import IntervalBounds
from repro.asp.runtime import FaultPlan, ShardedBackend
from repro.asp.runtime.fault.chaos import _streams_for
from repro.asp.stream import StreamEnvironment
from repro.asp.time import minutes
from repro.errors import SchemaError
from repro.experiments.common import (
    iter_consecutive_pattern,
    nseq_pattern,
    seq2_pattern,
)
from repro.mapping.advisor import recommend_options
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.build import build_plan
from repro.mapping.optimizer.ir import (
    JoinKind,
    LogicalPlan,
    Permute,
    StreamScan,
    WindowJoin,
    WindowStrategy,
)
from repro.mapping.translator import _Compiler, probe_plan, translate
from repro.patterns import CATALOG
from repro.sea.parser import parse_pattern
from repro.sea.predicates import Attr, Compare, Const, Predicate
from repro.sea.semantics import evaluate_pattern
from tests.test_optimizer_rules import RatesModel

MIN = minutes(1)
BATCH_SIZES = (7, 64, 256)
TYPES = ("Q", "V", "W")


def interval(options: TranslationOptions) -> TranslationOptions:
    return dataclasses.replace(options, join_strategy=WindowStrategy.INTERVAL)


def make_stream(seed, n=60):
    rng = random.Random(seed)
    return [
        Event(rng.choice(TYPES), ts=i * MIN, id=rng.randint(1, 2),
              value=round(rng.uniform(0, 100), 2))
        for i in range(n)
    ]


def by_type(events):
    streams = {}
    for event in events:
        streams.setdefault(event.event_type, []).append(event)
    return streams


def slots(ce):
    return (ce.dedup_key(), ce.ts_b, ce.ts_e, ce.ts, ce.size_bytes, ce.detection_ts)


def record(join):
    """Log what ``join`` emits, slot by slot at emission time, and hold
    every emission against the generic constructor."""
    log = []
    inner = join.process_batch

    def wrapped(*args, **kwargs):
        out = inner(*args, **kwargs)
        for ce in out:
            generic = ComplexEvent(ce.events)
            generic.ts = generic.ts_b if join.emit_ts == "min" else generic.ts_e
            assert type(ce) is ComplexEvent
            assert slots(ce) == slots(generic)
            log.append(slots(ce))
        return out

    join.process_batch = wrapped
    return log


def interval_joins(flow):
    return [
        node.payload
        for node in flow.nodes.values()
        if isinstance(node.payload, IntervalJoin)
    ]


def run(pattern, streams, options, batch_size, **translate_kwargs):
    sources = {
        t: ListSource(list(evs), name=f"src[{t}]", event_type=t)
        for t, evs in streams.items()
    }
    query = translate(pattern, sources, options, analyze=False, **translate_kwargs)
    joins = interval_joins(query.env.flow)
    logs = [record(j) for j in joins]
    result = query.execute(batch_size=batch_size)
    assert not result.failed, result.failure
    counters = [(j.pairs_tested, j.pairs_emitted, j.work_units) for j in joins]
    return query, logs, counters


def assert_batch_sizes_agree(pattern, streams, options, **translate_kwargs):
    """Batches of one against every other batch size, and the oracle."""
    reference, ref_logs, ref_counters = run(
        pattern, streams, options, 1, **translate_kwargs
    )
    assert ref_logs, "plan has no interval join"
    for batch_size in BATCH_SIZES:
        query, logs, counters = run(
            pattern, streams, options, batch_size, **translate_kwargs
        )
        assert logs == ref_logs, f"emission lists differ at batch_size={batch_size}"
        assert counters == ref_counters, f"counters differ at batch_size={batch_size}"
        assert [slots(m) for m in query.matches()] == [
            slots(m) for m in reference.matches()
        ]
    events = [e for evs in streams.values() for e in evs]
    want = {m.ordered_dedup_key() for m in evaluate_pattern(pattern, events)}
    assert {m.ordered_dedup_key() for m in reference.matches()} == want
    return reference


# -- the plans the benchmark runs ----------------------------------------------


def catalog_cells():
    """Catalog queries whose plan, forced onto O1, has a binary join."""
    for name in sorted(CATALOG):
        pattern = CATALOG[name]()
        options = interval(recommend_options(pattern).options)
        if options.iteration_strategy == "aggregate":
            options = dataclasses.replace(options, iteration_strategy="join")
        if build_plan(pattern, options).num_joins():
            yield pytest.param(pattern, options, id=name)


@pytest.mark.parametrize("pattern, options", catalog_cells())
def test_catalog_pattern(pattern, options):
    assert_batch_sizes_agree(pattern, _streams_for(pattern, 700, 3, 11), options)


@pytest.mark.parametrize(
    "pattern, options",
    [
        (seq2_pattern(0.3, 15, keyed=True), TranslationOptions()),
        (seq2_pattern(0.3, 15, keyed=False), TranslationOptions()),
        (nseq_pattern(15, 0.1, 0.2), TranslationOptions()),
        (iter_consecutive_pattern(3, 15, 0.1), TranslationOptions()),
    ],
    ids=["seq-keyed", "seq-global", "nseq", "iter-join-chain"],
)
def test_batch_join_plans(pattern, options):
    streams = _streams_for(pattern, 900, 3, 11)
    assert_batch_sizes_agree(pattern, streams, interval(options))


# -- every shape pair, by construction and by generation -----------------------

SHAPED = {
    ("event", "event"): "PATTERN SEQ(Q a, V b) WHERE a.value < b.value WITHIN 6 MINUTES",
    ("complex", "event"): (
        "PATTERN SEQ(Q a, V b, W c) WHERE a.value < c.value AND a.id = b.id "
        "WITHIN 6 MINUTES"
    ),
    ("event", "complex"): (
        "PATTERN SEQ(Q a, AND(V b, W c)) WHERE a.value < c.value WITHIN 6 MINUTES"
    ),
    ("complex", "complex"): (
        "PATTERN AND(SEQ(Q a, V b), SEQ(W c, Q d)) WHERE a.value < d.value "
        "WITHIN 6 MINUTES"
    ),
}


@pytest.mark.parametrize("shapes", sorted(SHAPED))
def test_shape_pair(shapes):
    pattern = parse_pattern(SHAPED[shapes])
    reference = assert_batch_sizes_agree(
        pattern, by_type(make_stream(5)), TranslationOptions.o1()
    )
    root = reference.plan.root
    plan = probe_plan(root)
    assert (plan.left_shape, plan.right_shape) == shapes
    assert plan.conjuncts is not None and len(plan.conjuncts) == 1
    assert reference.matches(), "the case must exercise emission"


def test_permuted_reorder_feeds_a_complex_shape():
    pattern = parse_pattern(
        "PATTERN SEQ(AND(Q a, V b), W c) WHERE a.value < c.value WITHIN 6 MINUTES"
    )
    reference = assert_batch_sizes_agree(
        pattern,
        by_type(make_stream(8)),
        TranslationOptions.o1(),
        cost_model=RatesModel({"Q": 10.0, "V": 1.0}),
    )
    root = reference.plan.root
    assert isinstance(root.left, Permute)
    assert probe_plan(root).left_shape == "complex"
    assert reference.matches()


def test_permute_keeps_every_slot_of_the_match():
    """The reorder's restoring map re-orders constituents in O(1): span,
    size and timestamps are the input's, as the generic constructor
    would re-derive them."""
    pattern = parse_pattern("PATTERN AND(Q a, V b) WITHIN 6 MINUTES")
    query, _logs, _counters = run(
        pattern,
        by_type(make_stream(8)),
        TranslationOptions.o1(),
        64,
        cost_model=RatesModel({"Q": 10.0, "V": 1.0}),
    )
    assert isinstance(query.plan.root, Permute)
    matches = query.matches()
    assert matches and {m.events[0].event_type for m in matches} == {"Q"}
    for match in matches:
        assert slots(match) == slots(ComplexEvent(match.events, ts=match.ts))


@st.composite
def chain_pattern_text(draw):
    """SEQ/AND/NSEQ chains of depth <= 3 over Q/V/W, with residual
    conjuncts across aliases and an optional key equality."""
    refs = []

    def ref():
        refs.append(f"{draw(st.sampled_from(TYPES))} x{len(refs)}")
        return refs[-1]

    def node(depth):
        # At most five events per pattern keeps the oracle cheap.
        if depth == 0 or len(refs) >= 3 or draw(st.integers(0, 2)) == 0:
            return ref()
        op = draw(st.sampled_from(["SEQ", "AND"]))
        return f"{op}({node(depth - 1)}, {node(depth - 1)})"

    if draw(st.integers(0, 4)) == 0:
        first, negated, last = draw(st.permutations(TYPES))
        structure = f"SEQ({first} x0, !{negated} x1, {last} x2)"
        aliases = ["x0", "x2"]
    else:
        op = draw(st.sampled_from(["SEQ", "AND"]))
        parts = [node(2) for _ in range(draw(st.integers(2, 3)))]
        structure = f"{op}({', '.join(parts)})"
        aliases = [r.split()[1] for r in refs]
    clauses = []
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(aliases)), draw(st.sampled_from(aliases))
        if a != b:
            op = draw(st.sampled_from(["<", "<=", ">", "!="]))
            clauses.append(f"{a}.value {op} {b}.value + {draw(st.integers(-20, 20))}")
    if len(aliases) >= 2 and draw(st.booleans()):
        clauses.append(f"{aliases[0]}.id = {aliases[1]}.id")
    where = f"WHERE {' AND '.join(clauses)} " if clauses else ""
    window = draw(st.integers(3, 7))
    return f"PATTERN {structure} {where}WITHIN {window} MINUTES SLIDE 1 MINUTE"


@settings(max_examples=40, deadline=None)
@given(text=chain_pattern_text(), seed=st.integers(0, 10**6), optimize=st.booleans())
def test_random_chains(text, seed, optimize):
    pattern = parse_pattern(text)
    kwargs = (
        {"cost_model": RatesModel({"Q": 10.0, "V": 1.0, "W": 0.1})} if optimize else {}
    )
    assert_batch_sizes_agree(
        pattern, by_type(make_stream(seed, n=36)), TranslationOptions.o1(), **kwargs
    )


# -- without plan facts, and where a conjunct has no inline form ---------------


def feed(join, lefts, rights, batch_size):
    """Drive a bare operator: rights buffered first, then lefts probe."""
    out = []
    for port, items in ((1, rights), (0, lefts)):
        for i in range(0, len(items), batch_size):
            out.extend(join.process_batch(items[i : i + batch_size], port))
    return [slots(ce) for ce in out], (join.pairs_tested, join.pairs_emitted, join.work_units)


def test_handwritten_theta_runs_the_template_with_runtime_shapes():
    events = make_stream(3, n=80)
    lefts = [e for e in events if e.event_type == "Q"]
    pairs = [e for e in events if e.event_type != "Q"]
    rights = [
        ComplexEvent((a, b)) if a.id == b.id else b for a, b in zip(pairs, pairs[1:])
    ]
    rights.sort(key=lambda item: item.ts)

    def make():
        return IntervalJoin(
            IntervalBounds.conjunction(8 * MIN),
            theta=lambda left, right: left.value < 60,
        )

    want = feed(make(), lefts, rights, 1)
    assert want[0], "the case must exercise emission"
    for batch_size in BATCH_SIZES:
        join = make()
        assert feed(join, lefts, rights, batch_size) == want
        assert "theta(l, r)" in join._probes[0].source
        assert "type(r) is _CE" in join._probes[0].source
    bare = IntervalJoin(IntervalBounds.sequence(8 * MIN))
    assert feed(bare, lefts, rights, 64) == feed(
        IntervalJoin(IntervalBounds.sequence(8 * MIN)), lefts, rights, 1
    )
    assert "theta" not in bare._probes[0].source


def test_missing_non_core_attribute_raises_the_same_schema_error():
    """NSEQ's guard reads ``a_ts``, an ``attrs`` entry: inlined as
    ``l['a_ts']``, so an event without it fails as the ``theta`` closure
    does."""
    pattern = parse_pattern("PATTERN SEQ(Q a, !W x, V b) WITHIN 6 MINUTES")
    sources = {t: ListSource([], event_type=t) for t in TYPES}
    join = interval_joins(
        translate(pattern, sources, TranslationOptions.o1(), analyze=False).env.flow
    )[0]
    assert "l['a_ts'] >= r.ts" in join.theta.probe_plan.conjuncts
    bare_q, late_v = Event("Q", ts=0, id=1), Event("V", ts=MIN, id=1)
    errors = []
    for generated in (False, True):
        fresh = copy.deepcopy(join)
        with pytest.raises(SchemaError) as err:
            if generated:
                fresh.process_batch([bare_q], 0)
                fresh.process_batch([late_v], 1)
            else:
                fresh.theta(bare_q, late_v)
        errors.append(str(err.value))
    assert errors[0] == errors[1] and "a_ts" in errors[0]


class ValueBelow(Predicate):
    """A predicate outside the closed AST (an opaque UDF)."""

    def __init__(self, alias, bound):
        self.alias, self.bound = alias, bound

    def evaluate(self, binding):
        return binding[self.alias].value < self.bound

    def aliases(self):
        return frozenset({self.alias})

    def render(self):
        return f"below({self.alias}, {self.bound})"


def lower_join(join_node, streams):
    """Lower a hand-built plan (shapes the PSL cannot spell)."""
    env = StreamEnvironment(name="hand-built")
    sources = {
        t: ListSource(list(evs), name=f"src[{t}]", event_type=t)
        for t, evs in streams.items()
    }
    plan = LogicalPlan(join_node, "hand-built", join_node.window_size, join_node.window_slide)
    output = _Compiler(env, sources).lower(plan, TranslationOptions.o1(), "hand-built")
    sink = output.sink(CollectSink())
    return env, sink


@pytest.mark.parametrize(
    "conjunct, reason",
    [
        (Compare("<", Attr("v", "value"), Const(50)), "alias 'v' bound 3 times"),
        (ValueBelow("v", 50), "cannot compile predicate"),
    ],
    ids=["repeated-alias", "opaque-udf"],
)
def test_conjunct_without_inline_form_keeps_calling_theta(conjunct, reason):
    """A repeated-alias ITER-style self-join chain: the closure binds the
    *last* ``v``, which no positional expression says — so the probe
    calls the closure, and emits the brute-force count at every batch size."""

    def chain():
        inner = WindowJoin(
            StreamScan("V", "v"), StreamScan("V", "v"), JoinKind.THETA,
            WindowStrategy.INTERVAL, True, 6 * MIN, MIN,
            consecutive_condition=lambda prev, cur: prev.value != cur.value,
        )
        return WindowJoin(
            inner, StreamScan("V", "v"), JoinKind.THETA, WindowStrategy.INTERVAL,
            True, 6 * MIN, MIN, extra_theta=(conjunct,),
            consecutive_condition=lambda prev, cur: prev.value != cur.value,
        )

    plan = probe_plan(chain())
    assert plan.conjuncts is None and reason in plan.fallback
    assert conjunct.render() in plan.describe()
    streams = {"V": [e for e in make_stream(13, n=90) if e.event_type == "V"]}
    results = []
    for batch_size in (1,) + BATCH_SIZES:
        env, sink = lower_join(chain(), streams)
        joins = interval_joins(env.flow)
        logs = [record(j) for j in joins]
        result = env.execute(watermark_interval=MIN, batch_size=batch_size)
        assert not result.failed, result.failure
        results.append(
            (logs, [(j.pairs_tested, j.pairs_emitted, j.work_units) for j in joins])
        )
        outer = [j for j in joins if j.theta.probe_plan.conjuncts is None]
        assert len(outer) == 1 and "theta(l, r)" in outer[0]._probes[1].source
    assert all(r == results[0] for r in results[1:])
    values = [e.value for e in streams["V"]]
    stamps = [e.ts for e in streams["V"]]
    want = sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        for k in range(j + 1, len(values))
        if stamps[k] - stamps[i] < 6 * MIN
        and values[i] != values[j] != values[k]
        and values[k] < 50
    )
    assert len(results[0][0][-1]) == want > 0


def test_a_fallback_to_the_closure_is_logged_once_per_scan_and_probe(caplog):
    """A scan filter without a source form and a probe that calls
    ``theta()`` per pair each leave one DEBUG record on their module's logger."""
    caplog.set_level(logging.DEBUG, logger="repro")
    node = WindowJoin(
        StreamScan("Q", "q", (ValueBelow("q", 50),)), StreamScan("V", "v"),
        JoinKind.THETA, WindowStrategy.INTERVAL, True, 6 * MIN, MIN,
        extra_theta=(ValueBelow("v", 50),),
    )
    env, sink = lower_join(node, by_type(make_stream(13, n=90)))
    assert not env.execute(watermark_interval=MIN, batch_size=64).failed
    assert sink.items
    messages = [r.getMessage() for r in caplog.records if r.name.startswith("repro.")]
    assert sum("filter[q] runs its closure" in m for m in messages) == 1
    assert sum("calls theta() per pair" in m for m in messages) == 2  # one per port


# -- compiled probes are not operator state ------------------------------------


def test_probes_are_dropped_on_copy_and_rebuilt_on_first_use():
    pattern = seq2_pattern(0.3, 15, keyed=True)
    streams = _streams_for(pattern, 600, 3, 11)
    query, _logs, _counters = run(pattern, streams, TranslationOptions.o1(), 64)
    (join,) = interval_joins(query.env.flow)
    assert all(probe is not None for probe in join._probes)
    # (``record`` wrapped the instance's entry point with a closure over
    # the original; drop it so the copies are plain operators.)
    del join.process_batch
    snapshot = join.snapshot_state()
    late = max(e.ts for evs in streams.values() for e in evs)
    batch = [Event("V", ts=late + i, id=1 + i % 3, value=1.0) for i in range(1, 9)]
    want = [slots(ce) for ce in copy.deepcopy(join).process_batch(batch, 1)]
    for clone in (
        copy.deepcopy(join),
        clone_dataflow(query.env.flow).nodes[
            next(n.node_id for n in query.env.flow.nodes.values() if n.payload is join)
        ].payload,
    ):
        assert clone._probes == [None, None]
        assert clone.snapshot_state().keys() == snapshot.keys()
        assert [slots(ce) for ce in clone.process_batch(batch, 1)] == want
        assert clone._probes[1] is not None and clone._probes[0] is None
    assert all(probe is not None for probe in join._probes)


def test_sharded_runs_clone_and_recover_flows_with_probes():
    """A shard's flow is a clone of the job's; a crashed shard restores
    operators from a snapshot. The probes are in neither and each shard /
    restart builds its own."""
    pattern = seq2_pattern(0.3, 15, keyed=True)
    options = TranslationOptions.o1_o3()
    streams = _streams_for(pattern, 1200, 4, 11)
    clean, _logs, _counters = run(pattern, streams, options, 1)
    want = sorted(slots(m) for m in clean.matches())
    assert want
    sources = {
        t: ListSource(list(evs), name=f"src[{t}]", event_type=t)
        for t, evs in streams.items()
    }
    query = translate(pattern, sources, options, analyze=False)
    result = query.execute(
        backend=ShardedBackend(shards=2, key_attribute="id"),
        checkpoint_interval=100,
        fault_plan=FaultPlan.crash_each_shard_once(2, 120, 300, seed=5),
        batch_size=64,
    )
    assert not result.failed, result.failure
    assert result.metrics["recovery"]["recovered"]
    assert sorted(slots(m) for m in query.matches()) == want


# -- what the source looks like --------------------------------------------------


def test_probe_source_inlines_what_the_plan_fixes():
    plan = ProbePlan("event", "complex", True, None, ("l.value < re[1].value",), ())
    source = probe_source(plan, 0, "min", True)
    assert "def _probe(l, candidates, append):" in source
    assert "isinstance" not in source and "type(" not in source
    assert "theta" not in source and "cond" not in source
    assert "if l_e >= r_b: continue" in source
    assert "if not (l.value < re[1].value): continue" in source
    assert "ce.ts = l_b" in source
    arriving_right = probe_source(plan, 1, "max", True)
    assert "def _probe(r, candidates, append):" in arriving_right
    assert "ce.ts = r_e" in arriving_right
    compiled = join_module.compile_probe(source, {"_CE": ComplexEvent})
    assert compiled.source == source


# -- when the compiling happens --------------------------------------------------


def test_probes_compile_on_first_execute_never_on_the_submit_path(monkeypatch):
    """Held by count, not by timing: lowering a plan and submitting a job
    generate and compile nothing; the first batch of a port compiles its
    probe; a join of the same shape reuses the code object."""
    from repro.mapping.multiquery import translate_many
    from repro.runtime.service import JobManager

    compiled = []
    original = join_module.compile_probe

    def counting(source, namespace):
        compiled.append(source)
        return original(source, namespace)

    monkeypatch.setattr(join_module, "compile_probe", counting)
    join_module._probe_code.cache_clear()

    names = sorted(CATALOG)
    patterns = [CATALOG[name]() for name in names]
    options = [interval(recommend_options(p).options) for p in patterns]
    streams = {}
    for pattern in patterns:
        streams.update(_streams_for(pattern, 500, 3, 11))
    sources = {t: ListSource(list(evs), event_type=t) for t, evs in streams.items()}
    singles = [translate(p, sources, o) for p, o in zip(patterns, options)]
    translate_many(patterns, sources, options)
    manager = JobManager()
    for name in names:
        manager.submit({"query": name})
    manager.submit({"name": "group", "queries": names[:3]})
    assert any(interval_joins(q.env.flow) for q in singles)
    assert compiled == []
    assert join_module._probe_code.cache_info().currsize == 0

    def execute(pattern, opts):
        query = translate(pattern, sources, opts)
        assert not query.execute(batch_size=64).failed
        return [
            probe.source
            for join in interval_joins(query.env.flow)
            for probe in join._probes
            if probe is not None
        ]

    pattern = parse_pattern(SHAPED[("complex", "event")])
    stream = by_type(make_stream(5))
    sources = {t: ListSource(evs, event_type=t) for t, evs in stream.items()}
    built = execute(pattern, TranslationOptions.o1())
    assert len(built) == 4 and sorted(compiled) == sorted(built)  # two joins × two ports
    first = join_module._probe_code.cache_info()
    assert first.misses == first.currsize == len(set(built))

    # Same join shapes, other constants and window: no new code object.
    again = parse_pattern(
        "PATTERN SEQ(Q a, V b, W c) WHERE a.value < c.value AND a.id = b.id "
        "WITHIN 4 MINUTES"
    )
    assert execute(again, TranslationOptions.o1()) == built
    second = join_module._probe_code.cache_info()
    assert second.misses == first.misses
    assert second.hits == first.hits + len(built)

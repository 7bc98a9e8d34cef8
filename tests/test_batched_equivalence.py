"""Batch-size invariance.

How the merged stream is cut into batches (watermark-aligned
micro-batches of up to ``batch_size`` events, fused stateless chains,
generated row filters) is a pure execution-strategy choice: for every
catalog query a large batch size must emit the exact same match multiset
as batches of one (``batch_size == 1``), with identical
``events_in``/``items_out``, join-level ``pairs_emitted``, channel frame
totals and peak state. Fused segments must keep exact per-stage counts,
checkpoint/recovery and sharded runs must stay byte-identical, and a
streaming source — where the engine falls back from the array merge to
the per-event merge — must not change any of it.
"""

import functools

from hypothesis import given, settings as hsettings, strategies as st

from repro.asp.datamodel import Event
from repro.asp.operators.sink import CollectSink
from repro.asp.operators.source import GeneratorSource
from repro.asp.runtime import ExecutionSettings, FaultPlan, FaultSpec, ShardedBackend
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.chaos import (
    _fresh_query,
    _streams_for,
    canonical_match_bytes,
)
from repro.asp.runtime.scheduler import (
    WatermarkService,
    merge_batches,
    merge_sources,
    source_arrays,
)
from repro.asp.stream import StreamEnvironment
from repro.asp.time import WatermarkGenerator
from repro.mapping.advisor import recommend_options
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.patterns import CATALOG
from repro.sea.parser import parse_pattern

SCALE_EVENTS = 900
SCALE_SENSORS = 3
SEED = 11

#: Batch sizes exercised against batches of one: tiny odd
#: batches (boundary churn), a mid size,
#: the production size, and batches larger than the whole stream.
BATCH_SIZES = [7, 64, 256, 1024]


@functools.cache
def _plans():
    """Every catalog query under the advisor's options, plus two n-ary
    plans (no catalog plan runs a ``MultiWayWindowJoin``)."""
    plans = {}
    for name in sorted(CATALOG):
        pattern = CATALOG[name]()
        plans[name] = (pattern, recommend_options(pattern).options)
    three_way = parse_pattern(
        "PATTERN SEQ(Q a, V b, PM10 c) WHERE a.id = b.id AND b.id = c.id "
        "WITHIN 10 MINUTES SLIDE 1 MINUTE"
    )
    for name, pattern in (
        ("traffic-congestion/multiway", CATALOG["traffic-congestion"]()),
        ("seq3/multiway", three_way),
    ):
        plans[name] = (pattern, TranslationOptions(use_multiway_joins=True))
    return plans


def _catalog_runs(name):
    pattern, options = _plans()[name]
    streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)

    def run(batch_size=1):
        query = _fresh_query(pattern, streams, options)
        result = query.execute(batch_size=batch_size)
        pairs = sum(
            getattr(node.payload, "pairs_emitted", 0)
            + getattr(node.payload, "tuples_emitted", 0)
            for node in query.env.flow.nodes.values()
        )
        return result, canonical_match_bytes(query.matches()), pairs

    return run


def test_catalog_batched_matches_serial_reference():
    failures = []
    for name in _plans():
        run = _catalog_runs(name)
        ref, ref_bytes, ref_pairs = run()
        if name.endswith("/multiway"):
            assert ref_pairs > 0, name
        for batch_size in BATCH_SIZES:
            res, out_bytes, pairs = run(batch_size)
            label = f"{name} bs={batch_size}"
            if out_bytes != ref_bytes:
                failures.append(f"{label}: match bytes differ")
            if res.events_in != ref.events_in:
                failures.append(
                    f"{label}: events_in {res.events_in} != {ref.events_in}"
                )
            if res.items_out != ref.items_out:
                failures.append(
                    f"{label}: items_out {res.items_out} != {ref.items_out}"
                )
            if pairs != ref_pairs:
                failures.append(f"{label}: pairs_emitted {pairs} != {ref_pairs}")
            if res.failed:
                failures.append(f"{label}: run failed: {res.failure}")
    assert not failures, "\n".join(failures)


def test_batched_channel_totals_match_serial():
    """Frame totals are drive-independent (only peak_burst may differ)."""
    run = _catalog_runs("pollution-any-particulate")
    ref, _, _ = run()
    for batch_size in (64, 256):
        batched, _, _ = run(batch_size)
        ref_channels = ref.metadata["channels"]
        batched_channels = batched.metadata["channels"]
        assert batched_channels["item_frames"] == ref_channels["item_frames"]
        assert batched_channels["watermark_frames"] == ref_channels["watermark_frames"]


def test_batched_state_accounting_matches_reference():
    """Bulk ledger adjustments must report the exact same peak state
    footprint as batches of one — the RA803 budget check and the
    peak-state gauges stay truthful."""
    run = _catalog_runs("traffic-congestion")
    ref, _, _ = run()
    batched, _, _ = run(256)
    assert batched.peak_state_bytes == ref.peak_state_bytes
    assert batched.peak_state_bytes > 0


def test_every_process_batch_call_receives_a_list():
    """A batch is a list of events, at every hop of every catalog plan."""
    for name in sorted(CATALOG):
        pattern = CATALOG[name]()
        streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)
        query = _fresh_query(pattern, streams, recommend_options(pattern).options)
        received = []
        for node in query.env.flow.operator_nodes():
            def spy(items, port=0, _inner=node.operator.process_batch):
                received.append(type(items))
                return _inner(items, port)

            node.operator.process_batch = spy
        assert not query.execute(batch_size=256).failed
        assert received and set(received) == {list}, name


def test_streaming_source_falls_back_to_row_batches():
    """Non-materialized sources have no arrays to bisect: the batch engine
    merges per event (generic merge) and still equals the reference."""
    pattern = CATALOG["traffic-congestion"]()
    options = recommend_options(pattern).options
    streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)

    def run(batch_size):
        sources = {
            t: GeneratorSource(lambda evs=evs: iter(evs), name=f"gen[{t}]", event_type=t)
            for t, evs in streams.items()
        }
        query = translate(pattern, sources, options, analyze=False)
        query.attach_sink()
        job = SerialJob(
            query.env.flow,
            ExecutionSettings(
                watermark_interval=query.plan.window_slide, batch_size=batch_size
            ),
        )
        return job, job.run(), canonical_match_bytes(query.matches())

    _, ref, ref_bytes = run(1)
    job, res, out_bytes = run(256)
    assert source_arrays(job.flow.source_nodes()) is None
    assert not res.failed, res.failure
    assert out_bytes == ref_bytes
    assert (res.events_in, res.items_out) == (ref.events_in, ref.items_out)
    assert res.metadata["channels"]["item_frames"] == ref.metadata["channels"]["item_frames"]

    # The same streams as lists do get the array merge.
    listed = _fresh_query(pattern, streams, options)
    assert source_arrays(listed.env.flow.source_nodes())


def _fanout_env(events, n_consumers):
    """One source fanning out to several filters (the PR 5 framing fix)."""
    env = StreamEnvironment("fanout")
    src = env.from_events(events, event_type="A")
    doubled = src.flat_map(
        lambda e: [e, Event(e.event_type, ts=e.ts, id=e.id, value=e.value + 0.5)],
        name="dup",
    )
    sinks = []
    for i in range(n_consumers):
        branch = doubled.filter(lambda e: True, name=f"branch{i}")
        sinks.append(branch.sink(CollectSink()))
    return env, sinks


def test_fanout_framing_counts_delivered_items():
    events = [Event("A", ts=i * 1000, id=1, value=float(i)) for i in range(40)]
    env, sinks = _fanout_env(events, n_consumers=2)
    job = SerialJob(env.flow, ExecutionSettings())
    result = job.run()
    # The flat_map doubles the stream, so each fan-out channel carries
    # 80 items and must record exactly 80 item frames — one per
    # delivered item, not one per process() call.
    fanout = [
        c
        for group in job.channels.values()
        for c in group
        if c.source_name.startswith("dup") and c.target_name.startswith("branch")
    ]
    assert len(fanout) == 2
    for channel in fanout:
        assert channel.items == 2 * len(events), channel.target_name
    for sink in sinks:
        assert sink.count == 2 * len(events)

    # Batched drive: identical totals, aggregate and per-edge.
    env2, sinks2 = _fanout_env(events, n_consumers=2)
    batched = env2.execute(batch_size=16)
    assert (
        batched.metadata["channels"]["item_frames"]
        == result.metadata["channels"]["item_frames"]
    )
    assert (
        batched.metadata["channels"]["watermark_frames"]
        == result.metadata["channels"]["watermark_frames"]
    )
    assert [s.items for s in sinks2] == [s.items for s in sinks]


def _stage_counts(result):
    ops = result.metrics["operators"]
    return {
        scope: (m["events_in"]["value"], m["events_out"]["value"])
        for scope, m in ops.items()
    }


def _chain_env(values, batch_size):
    events = [
        Event("A", ts=i * 1000, id=1 + (i % 3), value=v)
        for i, v in enumerate(values)
    ]
    env = StreamEnvironment("chain")
    src = env.from_events(events, event_type="A")
    stage = src.filter(lambda e: e.value >= 0, name="nonneg")
    stage = stage.map(
        lambda e: Event(e.event_type, ts=e.ts, id=e.id, value=e.value * 2.0),
        name="double",
    )
    stage = stage.filter(lambda e: e.value < 120, name="cap")
    sink = stage.sink(CollectSink())
    result = env.execute(batch_size=batch_size)
    return result, sink


@hsettings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), max_size=120
    ),
    batch_size=st.sampled_from([1, 3, 17, 256]),
)
def test_fused_stage_counts_follow_the_input(values, batch_size):
    """A fused filter->map->filter chain keeps exact per-stage counts,
    the ones the input dictates, at every batch size."""
    result, sink = _chain_env(values, batch_size)
    kept = [2.0 * v for v in values if v >= 0]
    capped = [v for v in kept if v < 120]
    assert [e.value for e in sink.items] == capped
    assert _stage_counts(result) == {
        "nonneg#1": (len(values), len(kept)),
        "double#2": (len(kept), len(kept)),
        "cap#3": (len(kept), len(capped)),
        "collect-sink#4": (len(capped), 0),
    }
    assert result.metadata["fused_segments"] == ["nonneg+double+cap"]


def test_fused_segment_composition_and_busy_attribution():
    result, _ = _chain_env([float(i) for i in range(200)], 32)
    assert result.metadata["fused_segments"] == ["nonneg+double+cap"]
    # Busy time distributed back onto constituent stages, never negative.
    for scope in ("nonneg#", "double#", "cap#"):
        matching = [s for s in result.stage_seconds if s.startswith(scope)]
        assert matching, scope
        assert all(result.stage_seconds[s] >= 0 for s in matching)


def test_chaos_recovery_byte_identical_under_batching():
    """Crashes cut at batch boundaries; recovery replays exactly."""
    pattern = CATALOG["traffic-congestion"]()
    options = recommend_options(pattern).options
    streams = _streams_for(pattern, 1500, SCALE_SENSORS, SEED)

    clean = _fresh_query(pattern, streams, options)
    clean.execute()
    clean_bytes = canonical_match_bytes(clean.matches())

    total = sum(len(evs) for evs in streams.values())
    offsets = (max(150, total // 4), max(300, total // 2))
    plan = FaultPlan(tuple(FaultSpec("crash", at_event=o) for o in offsets))
    for batch_size in (7, 64, 256):
        query = _fresh_query(pattern, streams, options)
        result = query.execute(
            checkpoint_interval=100, fault_plan=plan, batch_size=batch_size
        )
        assert not result.failed, result.failure
        recovery = result.metrics["recovery"]
        assert recovery["recovered"]
        assert len(recovery["restarts"]) == len(offsets)
        assert canonical_match_bytes(query.matches()) == clean_bytes


def test_sharded_backend_runs_batched_per_shard():
    pattern = CATALOG["traffic-congestion"]()
    keyed = recommend_options(pattern, partition_attribute="id").options
    streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)

    serial = _fresh_query(pattern, streams, keyed)
    serial.execute()
    serial_bytes = canonical_match_bytes(serial.matches())

    for batch_size in (64, 256):
        query = _fresh_query(pattern, streams, keyed)
        backend = ShardedBackend(shards=2, key_attribute="id")
        result = query.execute(backend=backend, batch_size=batch_size)
        assert not result.failed, result.failure
        assert canonical_match_bytes(query.matches()) == serial_bytes


@hsettings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["seq", "iter", "band"]),
    # Integral thresholds only: the pattern grammar takes plain decimal
    # literals, not scientific notation.
    threshold=st.integers(min_value=0, max_value=150).map(float),
    window_minutes=st.integers(min_value=2, max_value=30),
    batch_size=st.sampled_from(BATCH_SIZES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_patterns_batched_equals_reference(
    kind, threshold, window_minutes, batch_size, seed
):
    """Random patterns x batch sizes: identical matches and identical
    channel frame totals against batches of one."""
    if kind == "seq":
        text = (
            f"PATTERN SEQ(Q a, V b) WHERE a.value > {threshold} "
            f"WITHIN {window_minutes} MINUTES"
        )
    elif kind == "iter":
        text = (
            f"PATTERN ITER2(V v) WHERE v.value < {threshold} "
            f"WITHIN {window_minutes} MINUTES"
        )
    else:
        # A band predicate compiles to a two-conjunct column mask.
        text = (
            f"PATTERN SEQ(Q a, V b) WHERE a.value > {threshold} "
            f"AND b.value < {threshold} WITHIN {window_minutes} MINUTES"
        )
    pattern = parse_pattern(text, name="prop")
    options = recommend_options(pattern).options
    streams = _streams_for(pattern, 240, 2, seed)

    ref = _fresh_query(pattern, streams, options)
    ref_result = ref.execute()
    batched = _fresh_query(pattern, streams, options)
    batched_result = batched.execute(batch_size=batch_size)

    assert canonical_match_bytes(batched.matches()) == canonical_match_bytes(
        ref.matches()
    )
    assert batched_result.events_in == ref_result.events_in
    assert (
        batched_result.metadata["channels"]["item_frames"]
        == ref_result.metadata["channels"]["item_frames"]
    )


# -- the scheduler contract ------------------------------------------------------


@st.composite
def _schedules(draw):
    """1-3 sorted sources, a plan that is strict or reorder-safe, batch
    and cut cadences, a run offset and a restored generator: either what
    observing a history gives (possibly ahead of the sources: a
    disordered prefix), or one with an emission already due (a state dir
    resumed with a smaller out-of-orderness)."""
    k = draw(st.integers(1, 3))
    streams = [
        sorted(draw(st.lists(st.integers(0, 60), max_size=30))) for _ in range(k)
    ]
    strict = draw(st.booleans())
    offset = 0
    if k == 1 or strict:
        offset = draw(st.integers(0, sum(map(len, streams))))
    ooo = draw(st.integers(0, 6))
    interval = draw(st.integers(1, 12))
    history = draw(st.lists(st.integers(0, 80), max_size=4))
    due = draw(st.integers(0, 5)) if draw(st.booleans()) else None
    return dict(
        streams=streams,
        strict=strict,
        offset=offset,
        ooo=ooo,
        interval=interval,
        history=history,
        due=due,
        batch_size=draw(st.integers(1, 256)),
        cut_indices=draw(st.lists(st.integers(1, 90), max_size=3)),
        cut_intervals=draw(st.sampled_from([(), (4,), (3, 10)])),
    )


@hsettings(max_examples=300, deadline=None)
@given(case=_schedules())
def test_merge_batches_delivers_what_the_per_event_loop_observes(case):
    """``merge_batches`` against ``merge_sources`` + ``observe``: the same
    sequence over one source, for a strict plan or in batches of one, the
    same multiset per watermark window for a regrouped one; every watermark after the same
    event with the same value; the same final generator state; and every
    batch inside its size and cut bounds."""
    env = StreamEnvironment("contract")
    uid, arrivals = 0, []  # (ts, source order, event id)
    for n, stamps in enumerate(case["streams"]):
        events = []
        for ts in stamps:
            events.append(Event(f"S{n}", ts=ts, id=uid))
            uid += 1
        sink = CollectSink()
        if case["strict"]:
            sink.reorder_safe = False
        env.from_events(events, event_type=f"S{n}").sink(sink)
        arrivals += [(e.ts, n, e.id) for e in events]
    flow, offset, ooo = env.flow, case["offset"], case["ooo"]
    sources = flow.source_nodes()
    node_ids = [node.node_id for node in sources]

    reference = WatermarkGenerator(ooo, case["interval"])
    for ts in case["history"]:
        reference.observe(ts)
    ref_events = []
    for node_id, event in merge_sources(sources):
        if len(ref_events) < offset:
            reference.observe(event.ts)
        ref_events.append((node_id, event.id))
    assert ref_events == [(node_ids[n], uid) for _ts, n, uid in sorted(arrivals)]
    state = reference.snapshot_state()
    if case["due"] is not None and (case["history"] or offset):
        state["last_emitted"] = state["max_ts"] - ooo - case["interval"] - case["due"]
    reference.restore_state(state)
    ref_marks = {}
    for index, (_node_id, event) in enumerate(merge_sources(sources, offset), offset + 1):
        watermark = reference.observe(event.ts)
        if watermark is not None:
            ref_marks[index] = watermark.value

    service = WatermarkService(flow, max_out_of_orderness=ooo, emit_interval=case["interval"])
    service.restore(state)
    delivered, marks = [], {}
    last = offset
    for node_id, events, watermark, last_index in merge_batches(
        sources,
        service,
        by_window=len(sources) == 1 or not case["strict"],
        batch_size=case["batch_size"],
        start_offset=offset,
        cut_indices=case["cut_indices"],
        cut_intervals=case["cut_intervals"],
    ):
        first = last_index - len(events) + 1
        assert events and first == last + 1 and len(events) <= case["batch_size"]
        for cut in case["cut_indices"]:
            assert not first <= cut < last_index, (cut, first, last_index)
        for every in case["cut_intervals"]:
            assert (first - 1) // every == (last_index - 1) // every, (every, first)
        delivered += [(node_id, event.id) for event in events]
        if watermark is not None:
            marks[last_index] = watermark.value
        last = last_index

    expected = ref_events[offset:]
    assert marks == ref_marks
    assert service.snapshot() == reference.snapshot_state()
    if len(case["streams"]) == 1 or case["strict"] or case["batch_size"] == 1:
        assert delivered == expected
    else:
        bounds = [0, *(mark - offset for mark in sorted(marks)), len(expected)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert sorted(delivered[lo:hi]) == sorted(expected[lo:hi]), (lo, hi)

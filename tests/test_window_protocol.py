"""Conformance of the sliding-window firing protocol.

``SlidingWindowOperator`` (``asp/operators/window.py``) is the one
implementation of explicit windowing; the sliding joins, the window
aggregates and the exact Kleene operator only supply what happens inside
one window. Every case here runs over all of them: the cursor's
rewind-only-before-the-first-firing rule, the terminal-watermark guard,
duplicate-free emission and eviction, whole runs against batches of
one, snapshot/restore, checkpoints written before the
protocol was shared, and arrival-stable ties.
"""

import pickle
import random

import pytest

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.aggregate import SortedWindowUdfAggregate, WindowAggregate
from repro.asp.operators.join import SlidingWindowJoin
from repro.asp.operators.kleene import KleeneIterOperator
from repro.asp.operators.multiway import MultiWayWindowJoin
from repro.asp.operators.window import WindowSpec
from repro.asp.state import StateRegistry
from repro.asp.time import Watermark

SIZE, SLIDE = 20, 5
WINDOW = WindowSpec(SIZE, SLIDE)


def by_id(item):
    return item.id


def echo(pairs):
    return [value for _ts, value in pairs]


OPERATORS = {
    "join": lambda: SlidingWindowJoin(WINDOW, left_key=by_id, right_key=by_id),
    "multiway": lambda: MultiWayWindowJoin(3, WINDOW, ordered=False, key_fn=by_id),
    "sum": lambda: WindowAggregate(WINDOW, "sum", key_fn=by_id),
    "udf": lambda: SortedWindowUdfAggregate(WINDOW, echo, key_fn=by_id),
    "kleene": lambda: KleeneIterOperator(WINDOW, 2, unbounded=True, key_fn=by_id),
}

every_operator = pytest.mark.parametrize("kind", sorted(OPERATORS))


def make(kind):
    op = OPERATORS[kind]()
    op.setup(StateRegistry())
    return op


def rep(item):
    """An output item as plain data (events compare by identity)."""
    if isinstance(item, ComplexEvent):
        return (item.ts, item.ts_b, item.ts_e, item.size_bytes, tuple(map(rep, item.events)))
    attrs = tuple(sorted((item.attrs or {}).items()))
    return (item.event_type, item.ts, item.id, item.value, attrs)


def feed(op, events):
    """Every event on every port, so each operator has something to emit."""
    for port in range(op.arity):
        for event in events:
            assert op.process_batch([event], port) == []


def workload(seed, steps=40):
    """``("run", port, events)`` and ``("wm", ts)`` steps: runs of up to
    five events on a random port, tied timestamps, disorder of up to nine
    time units, never behind the last watermark."""
    rng = random.Random(seed)
    ts, wm, serial, out = 100, 0, 0, []
    for _ in range(steps):
        run = []
        for _ in range(rng.randrange(1, 6)):
            ts += rng.randrange(0, 7)
            serial += 1
            late = rng.choice((0, 0, 0, 3, 9))
            run.append(Event("T", max(wm + 1, ts - late), rng.randrange(3), serial / 3))
        out.append(("run", rng.randrange(3), run))
        if rng.random() < 0.4:
            wm = max(wm, ts - 10)
            out.append(("wm", wm))
    return out


def drive(op, steps, batched=False):
    """Feed each run whole (``batched``) or as batches of one."""
    out = []
    for step in steps:
        if step[0] == "wm":
            out.extend(op.on_watermark(Watermark(step[1])))
            continue
        _, port, run = step
        port %= op.arity
        if batched:
            out.extend(op.process_batch(run, port))
        else:
            for event in run:
                out.extend(op.process_batch([event], port))
    return [rep(item) for item in out]


def ledger(op):
    return op.state_size_bytes(), op.state_items(), op.state_peak_bytes()


@every_operator
def test_late_arrival_reopens_earlier_windows_only_before_the_first_firing(kind):
    early = [Event("T", 12, 1, 1.0), Event("T", 14, 1, 2.0)]
    later = [Event("T", 40, 1, 3.0), Event("T", 42, 1, 4.0)]

    in_order, reopened = make(kind), make(kind)
    feed(in_order, early + later)
    feed(reopened, later)
    assert reopened._next_window_index == 5  # first window holding ts 40: [25, 45)
    feed(reopened, early)
    assert reopened._next_window_index == in_order._next_window_index == -1
    want = sorted(rep(item) for item in in_order.on_close())
    assert want and sorted(rep(item) for item in reopened.on_close()) == want

    fired = make(kind)
    feed(fired, later)
    emitted = list(fired.on_watermark(Watermark(45)))  # fires [25, 45)
    assert emitted and fired._next_window_index == 6
    feed(fired, early)  # behind the watermark: no window is owed to it
    assert fired._next_window_index == 6
    for item in list(fired.on_watermark(Watermark(50))) + list(fired.on_close()):
        assert item.ts >= 40 and getattr(item, "ts_b", 40) >= 40


@every_operator
def test_terminal_watermark_stops_at_the_newest_buffered_entry(kind):
    op = make(kind)
    feed(op, [Event("T", 101, 1, 1.0), Event("T", 103, 1, 2.0)])
    assert list(op.on_close())
    assert op._next_window_index == 103 // SLIDE + 1
    assert ledger(op)[:2] == (0, 0)
    # Nothing buffered: a further terminal watermark fires nothing at all.
    assert list(op.on_close()) == []
    assert op._next_window_index == 103 // SLIDE + 1


@every_operator
def test_overlapping_windows_emit_once_and_state_stays_bounded(kind):
    op = make(kind)
    out = []
    for i in range(100):
        feed(op, [Event("T", i * SLIDE, 1, float(i))])
        out.extend(op.on_watermark(Watermark(i * SLIDE - SLIDE)))
        # What the watermark has not passed yet plus one window behind it.
        assert op.state_items() <= (SIZE // SLIDE + 2) * op.arity
    out.extend(op.on_close())
    reps = [rep(item) for item in out]
    assert reps and len(reps) == len(set(reps))
    assert ledger(op)[:2] == (0, 0)


@every_operator
@pytest.mark.parametrize("seed", range(6))
def test_whole_runs_equal_batches_of_one(kind, seed):
    steps = workload(seed)
    by_one, batched = make(kind), make(kind)
    want = drive(by_one, steps)
    assert drive(batched, steps, batched=True) == want
    assert batched.snapshot_state() == by_one.snapshot_state()
    assert ledger(batched) == ledger(by_one)
    closing = [rep(item) for item in by_one.on_close()]
    assert want + closing
    assert [rep(item) for item in batched.on_close()] == closing
    assert batched.collect_metrics() == by_one.collect_metrics()
    assert ledger(batched) == ledger(by_one)


@every_operator
@pytest.mark.parametrize("batched", [False, True], ids=["batches-of-one", "batched"])
@pytest.mark.parametrize("seed", range(4))
def test_restore_into_a_fresh_instance_continues_identically(kind, seed, batched):
    steps = workload(seed)
    cut = len(steps) // 2
    op = make(kind)
    drive(op, steps[:cut], batched)
    assert op.state_items() > 0
    snapshot = pickle.loads(pickle.dumps(op.snapshot_state()))

    twin = make(kind)
    drive(twin, workload(seed + 100)[:7], batched)  # restore replaces, never merges
    twin.restore_state(snapshot)
    assert twin.snapshot_state() == op.snapshot_state()
    assert ledger(twin)[:2] == ledger(op)[:2]

    rest = steps[cut:] + [("wm", Watermark.terminal().value)]
    assert drive(twin, rest, batched) == drive(op, rest, batched)
    assert twin.collect_metrics() == op.collect_metrics()
    assert ledger(twin)[:2] == ledger(op)[:2] == (0, 0)


def _events(*timestamps):
    return [Event("T", ts, 1, float(ts)) for ts in timestamps]


def _held(*timestamps):
    return {1: (list(timestamps), _events(*timestamps))}


#: Operator state as the parent commit's ``snapshot_state`` wrote it: the
#: joins spell the fired flag ``windows_fired``, the single-input
#: operators ``windows_fired_flag`` next to a counter named
#: ``windows_fired``, and the UDF aggregate carries ``pending``. The
#: cursor says ``[25, 45)`` was the last window fired.
PARENT_PAYLOADS = {
    "join": {
        "work_units": 9, "left": _held(46, 48), "right": _held(47),
        "next_window_index": 6, "windows_fired": True,
        "pairs_tested": 5, "pairs_emitted": 2,
    },
    "multiway": {
        "work_units": 9, "buffers": [_held(46), _held(47, 48), _held(49)],
        "next_window_index": 6, "windows_fired": True,
        "tuples_tested": 5, "tuples_emitted": 2,
    },
    "sum": {
        "work_units": 9, "by_key": {1: ([46, 48], [1.5, 2.5])},
        "next_window_index": 6, "windows_fired_flag": True, "windows_fired": 4,
    },
    "udf": {
        "work_units": 9, "by_key": {1: ([46, 48], [1.5, 2.5])},
        "next_window_index": 6, "windows_fired_flag": True, "windows_fired": 4,
        "pending": [],
    },
    "kleene": {
        "work_units": 9, "by_key": _held(46, 48),
        "next_window_index": 6, "windows_fired_flag": True, "windows_fired": 4,
        "combos_tested": 5, "matches_emitted": 2,
    },
}


@every_operator
@pytest.mark.parametrize("fired", [True, False])
def test_restores_a_checkpoint_the_parent_commit_wrote(kind, fired):
    payload = dict(PARENT_PAYLOADS[kind])
    flag = "windows_fired_flag" if "windows_fired_flag" in payload else "windows_fired"
    payload[flag] = fired
    op = make(kind)
    op.restore_state(pickle.loads(pickle.dumps(payload)))

    buffers = payload.get("buffers") or [payload[key] for key in op.buffer_keys]
    held = [ts for buffer in buffers for timestamps, _ in buffer.values() for ts in timestamps]
    entries = len(held)
    entry_bytes = 96 if kind in ("sum", "udf") else Event("T", 46, 1, 46.0).size_bytes
    assert ledger(op)[:2] == (entries * entry_bytes, entries)
    assert op.work_units == 9
    metrics = op.collect_metrics()
    for name in op.counters:
        assert metrics[name] == payload[name]

    # The restored flag decides whether a late arrival may still rewind.
    feed(op, _events(12))
    assert op._next_window_index == (6 if fired else -1)
    # Buffers and cursor are live: what the payload held still fires.
    assert any(item.ts >= 46 for item in op.on_close())
    assert ledger(op)[:2] == (0, 0)

    again = op.snapshot_state()
    assert again["next_window_index"] == max(held) // SLIDE + 1
    assert again["windows_fired_flag"] is True


@pytest.mark.parametrize("batched", [False, True], ids=["batches-of-one", "batched"])
def test_late_ties_keep_arrival_order_in_the_aggregate_buffer(batched):
    """A late event is buffered after every earlier arrival of its
    timestamp — as in the join and Kleene buffers — so an order-sensitive
    UDF and a float sum see one order on every path."""
    a, b, c = (Event("V", 5, 1, value) for value in (1e16, -1e16, 1.0))
    run = [Event("V", 7, 1, 0.0), a, b, c]
    for op, want in (
        (SortedWindowUdfAggregate(WindowSpec(10, 10), echo), [1e16, -1e16, 1.0, 0.0]),
        (WindowAggregate(WindowSpec(10, 10), "sum"), [(1e16 + -1e16) + 1.0 + 0.0]),
    ):
        op.setup(StateRegistry())
        drive(op, [("run", 0, run)], batched)
        assert [item.value for item in op.on_close()] == want

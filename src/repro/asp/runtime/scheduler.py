"""Source scheduling and the watermark service.

Extracted from the former run loop: *what* drives a job is independent
of *how* operators are executed. The scheduler merges all finite sources
by event time (the cloud gathers streams centrally — paper Section 1)
and the :class:`WatermarkService` decides when event time advances and
how far each operator may trust it (accumulated watermark delays along
graph paths, the analog of Flink's watermark re-assignment after
event-time redefinition, paper Section 4.2.2).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from typing import Iterator, Sequence

from repro.asp.datamodel import Event
from repro.asp.graph import Dataflow, Node
from repro.asp.time import Watermark, WatermarkGenerator


def merge_sources(flow: Dataflow, offset: int = 0) -> Iterator[tuple[int, Event]]:
    """Merge all source iterators by (ts, source order).

    Yields ``(node_id, event)`` pairs in global event-time order, which is
    how a centralized ASPS observes multiple producer streams. Ties on
    the timestamp are broken by source registration order, so replays are
    deterministic.

    ``offset`` drops the first ``offset`` pairs (a checkpoint already
    consumed them). Over a single in-memory source the merged stream *is*
    that source's sequence, so the stream starts at the offset — what a
    run costs follows its unread events, not the length of the log.
    Anything else is merged from the start and the prefix discarded.
    """
    sources = flow.source_nodes()
    if len(sources) == 1:
        source = sources[0].source
        events = source.materialized()
        if events is not None:
            unread = events[offset:]
            source.emitted += len(unread)
            return zip(repeat(sources[0].node_id), unread)
    return islice(_heap_merge(sources), offset, None)


def _heap_merge(sources: Sequence[Node]) -> Iterator[tuple[int, Event]]:
    iterators: list[tuple[int, Iterator[Event]]] = [
        (node.node_id, iter(node.source)) for node in sources
    ]
    heap: list[tuple[int, int, int, Event]] = []
    for order, (node_id, it) in enumerate(iterators):
        first = next(it, None)
        if first is not None:
            heap.append((first.ts, order, node_id, first))
    heapq.heapify(heap)
    its = {node_id: it for node_id, it in iterators}
    orders = {node_id: order for order, (node_id, _) in enumerate(iterators)}
    while heap:
        ts, order, node_id, event = heapq.heappop(heap)
        yield node_id, event
        nxt = next(its[node_id], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.ts, orders[node_id], node_id, nxt))


def merge_batches(
    flow: Dataflow,
    watermarks: "WatermarkService",
    *,
    batch_size: int,
    start_offset: int = 0,
    cut_indices: Sequence[int] = (),
    cut_intervals: Sequence[int] = (),
    regroup: bool = False,
    arrays: "list[tuple] | None",
    arrays_from: int = 0,
) -> Iterator[tuple[int, list[Event], Watermark | None, int]]:
    """Group the merged source stream into watermark-aligned micro-batches.

    Each yielded ``(node_id, events, watermark, last_index)`` batch is a
    maximal run of *consecutive same-source events* of the merged stream —
    batching therefore never reorders the serial arrival sequence, which
    is what keeps eagerly-emitting operators (interval joins, the NSEQ
    UDF) byte-equivalent to per-event execution.

    With ``regroup=True`` (the caller proved every operator in the plan
    ``reorder_safe``) the same-source-run constraint is relaxed *within
    one watermark interval*: all of a window's events are delivered
    grouped per source, in source registration order, with the
    watermark-triggering source last. Event time still advances after
    exactly the same event, every event still reaches its operators
    before the watermark that covers it, and order-insensitive plans
    produce the identical output multiset — but interleaved sources now
    form large batches instead of degenerating to per-event runs.

    Runs are additionally capped at ``batch_size``, at multiples of every
    ``cut_intervals`` entry (checkpoint and sampling cadences must observe
    exactly the event indices the serial reference observes), and at the
    explicit 1-based ``cut_indices`` (pending fault offsets). Timestamps
    are observed in stream order; when a watermark is due the batch closes
    immediately and carries the watermark, so event time advances after
    exactly the same event as in the serial loop. Events with index <=
    ``start_offset`` are skipped without being observed (checkpoint
    replay: the restored generator already saw them).

    ``arrays`` holds one ``(node_id, source, events, ts)`` entry per
    source — its event list and that list's timestamps — when every
    source is an in-memory, time-sorted sequence (see
    :meth:`~repro.asp.operators.source.Source.materialized`). Runs are
    then found with a galloping bisect merge, watermark emission points
    are located by bisect — per-batch instead of per-event scheduling
    cost — and each batch is the slice ``events[i:stop]``.
    ``arrays_from`` says how many merged events precede the arrays' first
    rows: 0 for whole sources (the prefix up to ``start_offset`` is then
    skipped), ``start_offset`` when a single source's entry covers its
    unread suffix alone. With ``None``, and for the short interleaved
    runs of multi-source strict plans, a generic per-event merge
    produces the identical batches.
    """
    cuts = sorted({c for c in cut_indices if c > start_offset})
    intervals = [iv for iv in cut_intervals if iv and iv > 0]

    def limit_for(first_index: int) -> int:
        """Largest index a batch starting at ``first_index`` may reach."""
        limit = first_index + batch_size - 1
        for iv in intervals:
            aligned = ((first_index + iv - 1) // iv) * iv
            if aligned < limit:
                limit = aligned
        pos = bisect_left(cuts, first_index)
        if pos < len(cuts) and cuts[pos] < limit:
            limit = cuts[pos]
        return limit

    if arrays is not None:
        if regroup:
            yield from _merge_windows(
                arrays, watermarks, limit_for, start_offset, arrays_from
            )
            return
        if len(arrays) == 1:
            yield from _merge_batches_fast(
                arrays, watermarks, limit_for, start_offset, arrays_from
            )
            return
        # Multi-source strict mode: same-source runs degenerate to the
        # interleaving granularity (~2 events on the sensor workloads),
        # so the per-run gallop (k-way min + bisects) costs more than
        # the per-event heap below. Order-sensitive plans over multiple
        # sources therefore merge generically; the gallop serves
        # single-source strict plans and regrouped windows.

    batch: list[Event] = []
    batch_node = -1
    limit = 0
    last_index = start_offset
    observe = watermarks.observe
    for index, (node_id, event) in enumerate(
        merge_sources(flow, start_offset), start=start_offset + 1
    ):
        if batch and (node_id != batch_node or index > limit):
            yield batch_node, batch, None, index - 1
            batch = []
        if not batch:
            batch_node = node_id
            limit = limit_for(index)
        batch.append(event)
        last_index = index
        watermark = observe(event.ts)
        if watermark is not None:
            yield batch_node, batch, watermark, index
            batch = []
    if batch:
        yield batch_node, batch, None, last_index


def _merge_batches_fast(arrays, watermarks, limit_for, start_offset, arrays_from):
    """Galloping merge over sorted source arrays (see merge_batches).

    Reproduces exactly the generic path's batches: the same (ts, source
    registration order) total order, the same watermark emission points
    (``observe`` is emulated with the generator's own state, which is
    written back before every yield so checkpoints taken at batch
    boundaries snapshot identical progress).
    """
    generator = watermarks.generator
    ooo = generator.max_out_of_orderness
    interval = generator.emit_interval
    state = generator.snapshot_state()
    max_ts = state["max_ts"]
    last_emitted = state["last_emitted"]

    k = len(arrays)
    pos = [0] * k
    sizes = [len(entry[3]) for entry in arrays]
    active = [i for i in range(k) if sizes[i]]
    index = arrays_from  # global 1-based index of the last consumed event
    while active:
        if len(active) == 1:
            best = active[0]
            end = sizes[best]
            node_id, source, events, ts = arrays[best]
            start = pos[best]
        else:
            best = min(active, key=lambda i: (arrays[i][3][pos[i]], i))
            node_id, source, events, ts = arrays[best]
            start = pos[best]
            end = sizes[best]
            for other in active:
                if other == best:
                    continue
                head = arrays[other][3][pos[other]]
                if other < best:
                    # The other source wins timestamp ties.
                    end = min(end, bisect_left(ts, head, start, end))
                else:
                    end = min(end, bisect_right(ts, head, start, end))
        i = start
        if index < start_offset:
            skip = min(end - i, start_offset - index)
            i += skip
            index += skip
        while i < end:
            first_index = index + 1
            limit = limit_for(first_index)
            stop = min(end, i + (limit - first_index + 1))
            threshold = last_emitted + interval + ooo
            watermark = None
            if max_ts >= threshold:
                # Emission already due (possible only after an external
                # state restore): the very next event triggers it.
                stop = i + 1
                if ts[i] > max_ts:
                    max_ts = ts[i]
                watermark = Watermark(max_ts - ooo)
            else:
                due = bisect_left(ts, threshold, i, stop)
                if due < stop:
                    stop = due + 1
                    max_ts = ts[due]
                    watermark = Watermark(max_ts - ooo)
                elif ts[stop - 1] > max_ts:
                    max_ts = ts[stop - 1]
            if watermark is not None:
                last_emitted = watermark.value
            batch = events[i:stop]
            index += stop - i
            source.emitted += stop - i
            generator.restore_state(
                {"max_ts": max_ts, "last_emitted": last_emitted}
            )
            yield node_id, batch, watermark, index
            i = stop
        pos[best] = end
        if end == sizes[best]:
            active.remove(best)


def _merge_windows(arrays, watermarks, limit_for, start_offset, arrays_from):
    """Watermark-window regrouped merge (see merge_batches, regroup=True).

    Each iteration locates the next watermark-triggering event — the
    first event in merged ``(ts, source order)`` order whose timestamp
    reaches the emission threshold — and delivers the whole window
    leading up to it grouped per source, trigger source last, the
    watermark on the window's final batch. Delivery order is fully
    deterministic, so replay from ``start_offset`` (in *delivery* index
    space) skips exactly the events a crashed attempt already processed.
    When a prefix has to be skipped, the watermark schedule is simulated
    from the generator's fresh state: restarted attempts restore a
    mid-stream generator snapshot, but the window structure must match
    the original attempt's from event one. Arrays that begin at the
    offset have no prefix to simulate and continue from the generator.
    """
    generator = watermarks.generator
    ooo = generator.max_out_of_orderness
    interval = generator.emit_interval
    sync = generator.restore_state
    if arrays_from == start_offset:
        state = generator.snapshot_state()
        max_ts, last_emitted = state["max_ts"], state["last_emitted"]
    else:
        # Fresh-generator state (WatermarkGenerator defaults), NOT the
        # current snapshot: see docstring.
        max_ts = last_emitted = -(2**62)

    k = len(arrays)
    pos = [0] * k
    sizes = [len(entry[3]) for entry in arrays]
    index = arrays_from  # global 1-based delivery index of the last consumed event
    while True:
        threshold = last_emitted + interval + ooo
        cuts = [
            bisect_left(arrays[i][3], threshold, pos[i], sizes[i])
            for i in range(k)
        ]
        trigger_ts = None
        trigger_src = -1
        for i in range(k):
            if cuts[i] < sizes[i]:
                head = arrays[i][3][cuts[i]]
                if trigger_ts is None or head < trigger_ts:
                    trigger_ts = head
                    trigger_src = i
        slices = []
        for i in range(k):
            if i != trigger_src and cuts[i] > pos[i]:
                slices.append((i, cuts[i]))
        if trigger_src >= 0:
            slices.append((trigger_src, cuts[trigger_src] + 1))
        if not slices:
            return
        wm_value = trigger_ts - ooo if trigger_src >= 0 else None
        for slice_pos, (i, hi) in enumerate(slices):
            node_id, source, events, ts = arrays[i]
            lo = pos[i]
            is_trigger = trigger_src >= 0 and slice_pos == len(slices) - 1
            while lo < hi:
                if index < start_offset:
                    skip = min(hi - lo, start_offset - index)
                    lo += skip
                    index += skip
                    if ts[lo - 1] > max_ts:
                        max_ts = ts[lo - 1]
                    if lo == hi and is_trigger:
                        last_emitted = wm_value
                    continue
                first_index = index + 1
                limit = limit_for(first_index)
                stop = min(hi, lo + (limit - first_index + 1))
                batch = events[lo:stop]
                count = stop - lo
                index += count
                source.emitted += count
                if ts[stop - 1] > max_ts:
                    max_ts = ts[stop - 1]
                watermark = None
                if is_trigger and stop == hi:
                    last_emitted = wm_value
                    watermark = Watermark(wm_value)
                sync({"max_ts": max_ts, "last_emitted": last_emitted})
                yield node_id, batch, watermark, index
                lo = stop
            pos[i] = hi


class WatermarkService:
    """Generates watermarks and localizes them per operator.

    Operators whose outputs lag event time (window joins, the NSEQ UDF)
    hold back the watermark their downstream consumers observe, so
    downstream windows do not close before delayed items arrive. The
    service accumulates those delays along every graph path once, at
    construction.
    """

    def __init__(
        self,
        flow: Dataflow,
        *,
        max_out_of_orderness: int = 0,
        emit_interval: int,
    ):
        self.generator = WatermarkGenerator(
            max_out_of_orderness=max_out_of_orderness,
            emit_interval=emit_interval,
        )
        self.topo: list[Node] = flow.topological_order()
        self.delays: dict[int, int] = {}
        for node in self.topo:
            in_delay = 0
            for edge in flow.in_edges(node.node_id):
                upstream = flow.nodes[edge.source_id]
                upstream_out = self.delays.get(edge.source_id, 0)
                if not upstream.is_source:
                    upstream_out += upstream.operator.watermark_delay()
                in_delay = max(in_delay, upstream_out)
            self.delays[node.node_id] = in_delay
        # localize() cache: one Watermark object per distinct delay per
        # broadcast (most operators share a handful of delay values).
        self._memo_value: int | None = None
        self._memo: dict[int, Watermark] = {}

    def observe(self, ts: int) -> Watermark | None:
        """Record an event timestamp; return a watermark when one is due."""
        return self.generator.observe(ts)

    def snapshot(self) -> dict[str, int]:
        """Checkpointable watermark progress (delegates to the generator)."""
        return self.generator.snapshot_state()

    def restore(self, snapshot: dict[str, int]) -> None:
        self.generator.restore_state(snapshot)

    def current_max_ts(self) -> int:
        """The largest observed event timestamp — the job's event clock."""
        return self.generator.current_max_ts

    def localize(self, node_id: int, watermark: Watermark) -> Watermark:
        """The watermark as operator ``node_id`` may observe it.

        A broadcast calls this once per operator; nodes are pre-bucketed
        by accumulated delay, so each distinct delay allocates exactly one
        localized :class:`Watermark` per broadcast instead of one per
        operator.
        """
        if watermark.is_terminal:
            return watermark
        if watermark.value != self._memo_value:
            self._memo_value = watermark.value
            self._memo = {}
        delay = self.delays[node_id]
        local = self._memo.get(delay)
        if local is None:
            local = self._memo[delay] = Watermark(watermark.value - delay)
        return local

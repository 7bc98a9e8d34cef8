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
from bisect import bisect_left
from itertools import islice, repeat
from operator import attrgetter
from typing import Iterator, Sequence

from repro.asp.datamodel import Event
from repro.asp.graph import Dataflow, Node
from repro.asp.time import Watermark, WatermarkGenerator

_event_ts = attrgetter("ts")


def _single_unread(
    sources: Sequence[Node], offset: int
) -> tuple[Node, Sequence[Event]] | None:
    """The one source and its events after ``offset``, when there is a
    single in-memory source, else ``None``.

    One in-memory source *is* the merged stream, so a run over it starts
    at its offset: what a run costs follows its unread events, not the
    length of the log.
    """
    if len(sources) == 1:
        events = sources[0].source.materialized()
        if events is not None:
            return sources[0], events[offset:]
    return None


def merge_sources(sources: Sequence[Node], offset: int = 0) -> Iterator[tuple[int, Event]]:
    """Merge the iterators of the source nodes ``sources`` (a flow's
    ``source_nodes()``) by (ts, source order).

    Yields ``(node_id, event)`` pairs in global event-time order, which is
    how a centralized ASPS observes multiple producer streams. Ties on
    the timestamp are broken by source registration order, so replays are
    deterministic.

    ``offset`` drops the first ``offset`` pairs (a checkpoint already
    consumed them): a single in-memory source starts there, anything
    else is merged from the start and the prefix discarded.
    """
    single = _single_unread(sources, offset)
    if single is not None:
        node, unread = single
        node.source.emitted += len(unread)
        return zip(repeat(node.node_id), unread)
    streams = [zip(repeat(node.node_id), node.source) for node in sources]
    # heapq.merge breaks timestamp ties by iterable (registration) order.
    return islice(heapq.merge(*streams, key=lambda pair: pair[1].ts), offset, None)


def source_arrays(sources: Sequence[Node], offset: int = 0) -> tuple[list[tuple], int] | None:
    """The window merge's input: one ``(node_id, source, events, ts)``
    entry per source (its event list and that list's timestamps), and
    how many merged events precede their first rows.

    ``None`` unless every source is an in-memory, time-sorted sequence
    (see :meth:`~repro.asp.operators.source.Source.materialized`). A
    single source's entry covers its events after ``offset`` (and the
    count is ``offset``); several sources' entries are whole (count 0).
    """
    single = _single_unread(sources, offset)
    if single is not None:
        entries, start = [single], offset
    else:
        entries = [(node, node.source.materialized()) for node in sources]
        start = 0
    arrays = []
    for node, events in entries:
        if events is None:
            return None
        if not isinstance(events, list):
            events = list(events)
        ts = list(map(_event_ts, events))
        # C-speed sortedness check: timsort is O(n) on sorted input,
        # far cheaper than a per-pair Python generator scan.
        if ts != sorted(ts):
            return None
        arrays.append((node.node_id, node.source, events, ts))
    return (arrays, start) if arrays else None


def merge_batches(
    sources: Sequence[Node],
    watermarks: "WatermarkService",
    *,
    by_window: bool,
    batch_size: int,
    start_offset: int = 0,
    cut_indices: Sequence[int] = (),
    cut_intervals: Sequence[int] = (),
) -> Iterator[tuple[int, list[Event], Watermark | None, int]]:
    """Group the merged source stream into watermark-aligned micro-batches.

    Each yielded ``(node_id, events, watermark, last_index)`` batch is a
    run of same-source events that ends at or before the next watermark
    emission. A due watermark rides on the batch whose last event
    triggers it, so event time advances after exactly the same event as
    in the per-event loop (:func:`merge_sources` plus ``observe``), and
    every event reaches its operators before the watermark that covers
    it. ``batch_size``, the ``sources`` and ``by_window`` pick one of
    three merges:

    * **one event per batch** at ``batch_size == 1``: the merged stream
      in arrival order. There is no run to grow and no cut to place, and
      regrouping by window could reorder events without making a batch
      bigger;
    * **per event**, when a source streams or is not time-sorted, and
      without ``by_window`` (a plan over several sources with an
      order-sensitive operator):
      batches are maximal runs of consecutive same-source events of the
      merged stream, so batching never reorders the arrival sequence —
      what keeps eagerly-emitting operators (interval joins, the NSEQ
      UDF) byte-equivalent to batches of one;
    * **by watermark window** (:func:`_merge_windows`), with
      ``by_window``: each window's events are delivered grouped per
      source, in source registration order, the triggering source last.
      Over one source that changes nothing, so the caller sets it for
      every single-source plan. Over several it sets it when every
      operator is ``reorder_safe`` (its output multiset is invariant
      under same-window reordering): interleaved sources then form large
      batches instead of degenerating to per-event runs.

    Runs are additionally capped at ``batch_size``, at multiples of every
    ``cut_intervals`` entry (checkpoint and sampling cadences must observe
    exactly the event indices batches of one observe), and at the
    explicit 1-based ``cut_indices`` (pending fault offsets). Events with
    index <= ``start_offset`` are skipped without being observed
    (checkpoint replay: the restored generator already saw them).
    """
    observe = watermarks.generator.observe
    if batch_size == 1:
        for index, (node_id, event) in enumerate(
            merge_sources(sources, start_offset), start=start_offset + 1
        ):
            yield node_id, [event], observe(event.ts), index
        return

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

    if by_window:
        prepared = source_arrays(sources, start_offset)
        if prepared is not None:
            yield from _merge_windows(*prepared, watermarks, limit_for, start_offset)
            return

    batch: list[Event] = []
    batch_node = -1
    limit = 0
    last_index = start_offset
    for index, (node_id, event) in enumerate(
        merge_sources(sources, start_offset), start=start_offset + 1
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


def _merge_windows(arrays, start, watermarks, limit_for, start_offset):
    """The watermark-window merge over sorted source arrays (see
    :func:`merge_batches`); ``start`` merged events precede the arrays.

    Each iteration locates the next watermark-triggering event — the
    first event in merged ``(ts, source order)`` order whose timestamp
    reaches the emission threshold — and delivers the whole window
    leading up to it grouped per source, trigger source last, the
    watermark on the window's final batch. When the generator already
    has an emission due (only a restored one can: resumed, say, with a
    smaller out-of-orderness), the window is the first event alone and
    its watermark is ``max(max_ts, ts) - ooo``, as ``observe`` says.
    Each batch is a slice ``events[i:stop]``, and the generator's state
    is written back before every yield, so checkpoints taken at batch
    boundaries snapshot what observing event by event would have left.

    Delivery order is fully deterministic, so replay from
    ``start_offset`` (in *delivery* index space) skips exactly the
    events a crashed attempt already processed. When a prefix has to be
    skipped, the watermark schedule is simulated from the generator's
    fresh state: restarted attempts restore a mid-stream generator
    snapshot, but the window structure must match the original attempt's
    from event one. Arrays that begin at the offset have no prefix to
    simulate and continue from the generator.
    """
    generator = watermarks.generator
    ooo = generator.max_out_of_orderness
    interval = generator.emit_interval
    sync = generator.restore_state
    if start == start_offset:
        state = generator.snapshot_state()
        max_ts, last_emitted = state["max_ts"], state["last_emitted"]
    else:
        # Fresh-generator state (WatermarkGenerator defaults), NOT the
        # current snapshot: see docstring.
        max_ts = last_emitted = -(2**62)

    k = len(arrays)
    pos = [0] * k
    sizes = [len(entry[3]) for entry in arrays]
    index = start  # global 1-based delivery index of the last consumed event
    while True:
        threshold = last_emitted + interval + ooo
        if max_ts >= threshold:
            threshold = float("-inf")  # due now: the next event triggers it
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
        wm_value = max(trigger_ts, max_ts) - ooo if trigger_src >= 0 else None
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

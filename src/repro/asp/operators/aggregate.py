"""Windowed aggregations — optimization O2 (paper Section 4.3.2).

O2 replaces the m-way self-join of ``ITER^m`` with a windowed count: the
aggregate emits one tuple per (key, window) carrying the number of
qualifying events; a downstream filter ``count >= m`` decides the match.
The result is *approximate* — one tuple per window instead of one
composition per event combination — which is exactly why it is fast.

Besides ``count`` the operator supports the usual numeric aggregates and
arbitrary UDF aggregates (the paper notes some ASPSs allow UDF window
functions that can even restore inter-event constraints and other
selection policies; :class:`SortedWindowUdfAggregate` provides that hook
and powers the Kleene+ extension).

Aggregation windows never fire empty (the paper's reason why O2 cannot
express Kleene*).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Sequence

from repro.asp.datamodel import Event
from repro.asp.operators.base import Item, StatefulOperator
from repro.asp.operators.window import SlidingWindowAssigner, WindowSpec
from repro.asp.time import Watermark

KeyFn = Callable[[Item], Any]

_GLOBAL = "__global__"


def _global_key(_item: Item) -> Any:
    return _GLOBAL


_BUILTIN_AGGREGATES: dict[str, Callable[[Sequence[float]], float]] = {
    "count": lambda values: float(len(values)),
    "sum": lambda values: float(sum(values)),
    "avg": lambda values: sum(values) / len(values),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
}


class WindowAggregate(StatefulOperator):
    """Per-(key, sliding window) aggregate over an attribute.

    Emits one :class:`Event` per non-empty window with ``value`` set to the
    aggregate, ``ts`` set to the inclusive window end (``end - 1``, so the
    result respects the window's time bounds) and ``id`` set to the key.
    The window interval is attached in ``attrs`` for downstream reporting.
    """

    kind = "window-aggregate"

    @property
    def reorder_safe(self) -> bool:
        # count/min/max are exactly commutative; float sum/avg are not
        # associative, so reordering tied timestamps across sources could
        # perturb low-order bits of the result.
        return self.function in ("count", "min", "max")

    def __init__(
        self,
        window: WindowSpec,
        function: str = "count",
        attribute: str = "value",
        key_fn: KeyFn | None = None,
        output_type: str = "AGG",
        name: str | None = None,
    ):
        super().__init__(name or f"window-{function}")
        if function not in _BUILTIN_AGGREGATES:
            raise ValueError(
                f"unknown aggregate '{function}'; expected one of {sorted(_BUILTIN_AGGREGATES)}"
            )
        self.window = window
        self.assigner = SlidingWindowAssigner(window)
        self.function = function
        self.fn = _BUILTIN_AGGREGATES[function]
        self.attribute = attribute
        self.key_fn = key_fn or _global_key
        self.is_keyed = key_fn is not None
        self.output_type = output_type
        self._by_key: dict[Any, tuple[list[int], list[float]]] = {}
        self._handle = None
        self._next_window_index: int | None = None
        self._windows_fired = False
        self.windows_fired = 0

    @property
    def key_parallel_safe(self) -> bool:
        return self.is_keyed

    def state_horizon_ms(self) -> int:
        # Per-window accumulators drop once their window fires.
        return self.window.size

    def collect_metrics(self) -> dict[str, int | float]:
        metrics = super().collect_metrics()
        metrics["windows_fired"] = self.windows_fired
        return metrics

    def setup(self, registry) -> None:
        super().setup(registry)
        self._handle = self._ensure_handle()

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = self.create_state("window-buffer")
        return self._handle

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap.update(
            by_key={
                key: (list(ts_list), list(values))
                for key, (ts_list, values) in self._by_key.items()
            },
            next_window_index=self._next_window_index,
            windows_fired_flag=self._windows_fired,
            windows_fired=self.windows_fired,
        )
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self._by_key = {
            key: (list(ts_list), list(values))
            for key, (ts_list, values) in snapshot["by_key"].items()
        }
        self._next_window_index = snapshot["next_window_index"]
        self._windows_fired = snapshot["windows_fired_flag"]
        self.windows_fired = snapshot["windows_fired"]
        handle = self._ensure_handle()
        handle.reset()
        entries = sum(len(ts_list) for ts_list, _values in self._by_key.values())
        handle.adjust(96 * entries, entries)

    def process(self, item: Item, port: int = 0) -> Iterable[Item]:
        self.work_units += 1
        handle = self._ensure_handle()
        key = self.key_fn(item)
        entry = self._by_key.get(key)
        if entry is None:
            entry = ([], [])
            self._by_key[key] = entry
        ts_list, values = entry
        value = float(item[self.attribute]) if isinstance(item, Event) else float(len(item))
        ts = item.ts
        if ts_list and ts < ts_list[-1]:
            pos = bisect_left(ts_list, ts)
            ts_list.insert(pos, ts)
            values.insert(pos, value)
        else:
            ts_list.append(ts)
            values.append(value)
        # The buffer stores one (ts, value) pair per item — account the
        # stored footprint, not the incoming event's (which may carry
        # attrs); eviction removes the same 96 bytes per entry.
        handle.adjust(96, +1)
        first_index = self.assigner.indices_for(ts)[0]
        if self._next_window_index is None:
            self._next_window_index = first_index
        elif not self._windows_fired and first_index < self._next_window_index:
            # Out-of-order arrival within lateness: open earlier windows
            # while none has fired yet.
            self._next_window_index = first_index
        return ()

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        """Bulk-buffer a run: one ledger adjustment, one cursor update.

        Windows fire only in :meth:`on_watermark` and batches never span a
        watermark, so accumulating a whole run before any firing is
        equivalent to per-item processing.
        """
        if not items:
            return []
        n = len(items)
        self.work_units += n
        handle = self._ensure_handle()
        key_fn = self.key_fn
        attribute = self.attribute
        by_key = self._by_key
        min_ts = items[0].ts
        for item in items:
            key = key_fn(item)
            entry = by_key.get(key)
            if entry is None:
                entry = ([], [])
                by_key[key] = entry
            ts_list, values = entry
            value = float(item[attribute]) if isinstance(item, Event) else float(len(item))
            ts = item.ts
            if ts_list and ts < ts_list[-1]:
                pos = bisect_left(ts_list, ts)
                ts_list.insert(pos, ts)
                values.insert(pos, value)
            else:
                ts_list.append(ts)
                values.append(value)
            if ts < min_ts:
                min_ts = ts
        handle.adjust(96 * n, n)
        first_index = self.assigner.indices_for(min_ts)[0]
        if self._next_window_index is None:
            self._next_window_index = first_index
        elif not self._windows_fired and first_index < self._next_window_index:
            self._next_window_index = first_index
        return []

    def _last_useful_index(self) -> int:
        """Largest window index containing any buffered value (guards the
        terminal watermark against iterating to MAX_WATERMARK)."""
        newest = -(2**62)
        for ts_list, _values in self._by_key.values():
            if ts_list and ts_list[-1] > newest:
                newest = ts_list[-1]
        return newest // self.window.slide

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        if self._next_window_index is None:
            return ()
        handle = self._ensure_handle()
        last_complete = min(
            self.assigner.last_index_before(watermark.value), self._last_useful_index()
        )
        out: list[Item] = []
        k = self._next_window_index
        if k <= last_complete:
            self._windows_fired = True
        while k <= last_complete:
            win = self.assigner.window_for_index(k)
            for key, (ts_list, values) in self._by_key.items():
                lo = bisect_left(ts_list, win.begin)
                hi = bisect_left(ts_list, win.end)
                if lo == hi:
                    continue  # empty windows never fire (no Kleene*)
                self.work_units += hi - lo
                self.windows_fired += 1
                out.append(self._emit(key, win.begin, win.end, values[lo:hi]))
            k += 1
        self._next_window_index = k
        min_keep = k * self.window.slide
        empty = []
        for key, (ts_list, values) in self._by_key.items():
            cut = bisect_left(ts_list, min_keep)
            if cut:
                handle.adjust(-96 * cut, -cut)
                del ts_list[:cut]
                del values[:cut]
            if not ts_list:
                empty.append(key)
        for key in empty:
            del self._by_key[key]
        return out

    def _emit(self, key: Any, begin: int, end: int, values: Sequence[float]) -> Event:
        return Event(
            event_type=self.output_type,
            ts=end - 1,
            id=key,
            value=self.fn(values),
            attrs={"window_begin": begin, "window_end": end, "count": len(values)},
        )


class SortedWindowUdfAggregate(WindowAggregate):
    """UDF window aggregate over the time-sorted window content.

    The UDF receives the sorted ``(ts, value)`` pairs of one (key, window)
    and returns any number of output values; each becomes one output
    event. This is the paper's escape hatch for inter-event constraints
    (e.g. strictly increasing values) and for full Kleene+ support on top
    of O2 (Section 4.3.2).
    """

    kind = "window-udf-aggregate"
    # The UDF sees the window's (ts, value) pairs; equal timestamps keep
    # arrival order, so an order-sensitive UDF could observe regrouping.
    reorder_safe = False

    def __init__(
        self,
        window: WindowSpec,
        udf: Callable[[Sequence[tuple[int, float]]], Iterable[float]],
        attribute: str = "value",
        key_fn: KeyFn | None = None,
        output_type: str = "AGG",
        name: str | None = None,
    ):
        super().__init__(
            window,
            function="count",  # placeholder; _emit is overridden
            attribute=attribute,
            key_fn=key_fn,
            output_type=output_type,
            name=name or "window-udf",
        )
        self.udf = udf
        self._pending: list[Event] = []

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap["pending"] = list(self._pending)
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self._pending = list(snapshot["pending"])

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        # Reuse the parent's window machinery; _emit captures the UDF
        # outputs in batches of events instead of one count event.
        self._pending = []
        for event in super().on_watermark(watermark):
            # parent emitted one placeholder per window; _emit already
            # queued the real outputs, so drop the placeholder.
            del event
        out = self._pending
        self._pending = []
        return out

    def _emit(self, key: Any, begin: int, end: int, values: Sequence[float]) -> Event:
        # ``values`` are already time-sorted because the buffer is sorted.
        entry = self._by_key[key]
        ts_list = entry[0]
        lo = bisect_left(ts_list, begin)
        pairs = [(ts_list[lo + i], v) for i, v in enumerate(values)]
        for result in self.udf(pairs):
            self._pending.append(
                Event(
                    event_type=self.output_type,
                    ts=end - 1,
                    id=key,
                    value=float(result),
                    attrs={"window_begin": begin, "window_end": end, "count": len(values)},
                )
            )
        return Event(event_type="__placeholder__", ts=end - 1, id=key)


def kleene_plus_count_udf(minimum: int) -> Callable[[Sequence[tuple[int, float]]], list[float]]:
    """UDF for the Kleene+ variation of O2: emit the count when at least
    ``minimum`` qualifying events occurred in the window."""

    def udf(pairs: Sequence[tuple[int, float]]) -> list[float]:
        return [float(len(pairs))] if len(pairs) >= minimum else []

    return udf


def increasing_run_udf(minimum: int) -> Callable[[Sequence[tuple[int, float]]], list[float]]:
    """UDF restoring an inter-event constraint on top of O2: emit the
    length of the longest strictly-increasing run when it reaches
    ``minimum`` (approximates ITER with ``v_n.value < v_{n+1}.value``)."""

    def udf(pairs: Sequence[tuple[int, float]]) -> list[float]:
        best = run = 1 if pairs else 0
        for (_, prev), (_, cur) in zip(pairs, pairs[1:]):
            run = run + 1 if cur > prev else 1
            if run > best:
                best = run
        return [float(best)] if best >= minimum else []

    return udf

"""Exact Kleene iteration — the exact replacement for approximate O2.

Optimization O2 (``WindowAggregate`` + threshold filter) deliberately
approximates ``ITER^m``: it emits one count tuple per window instead of
one composition per qualifying event combination (paper Section 4.3.2).
The alternative the paper maps — a chain of ``m - 1`` theta self-joins —
is exact but re-tests O(n^m) pairs window by window and cannot express
*unbounded* Kleene+ at all (a join chain has a fixed arity).

:class:`KleeneIterOperator` closes that gap. It reuses the sliding-window
firing protocol of :class:`~repro.asp.operators.aggregate.WindowAggregate`
(same cursor, same eviction, same first-complete-window discipline) but
keeps the *events* and enumerates the exact match set per fired window:

* Candidates of one (key, window) are sorted canonically by
  ``(ts, id, value)`` — the oracle's order (Eq. 12).
* The sorted candidates are grouped into **contiguity runs** of equal
  timestamp. Strict temporal order (``e1.ts < ... < em.ts``) means a
  valid composition picks at most one event per run, and runs only in
  increasing order — so enumeration walks runs, never re-checking
  timestamps pairwise.
* A depth-first walk over the runs emits every composition of exactly
  ``minimum`` events (bounded ``ITER^m``) or of at least ``minimum``
  events (unbounded Kleene+), applying the optional consecutive
  condition to adjacent picks as it extends — failed extensions prune
  nothing else, matching the adjacent-pair-only semantics.
* Overlapping sliding windows would re-emit a composition once per
  window containing it; like the sliding join, a composition is emitted
  only from the *first* window containing its newest event, which is
  provably the first window containing all of it (any earlier window
  excludes the newest event, and the first one reaches at least as far
  back as the current window's begin).

The result is byte-identical to the bounded join chain and extends to
unbounded Kleene+ with the oracle's exact semantics — the equivalence
suite checks both.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Literal, Sequence

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.base import Item, StatefulOperator
from repro.asp.operators.window import SlidingWindowAssigner, WindowSpec
from repro.asp.time import Watermark

KeyFn = Callable[[Item], Any]
ConditionFn = Callable[[Event, Event], bool]

_GLOBAL = "__global__"


def _global_key(_item: Item) -> Any:
    return _GLOBAL


class KleeneIterOperator(StatefulOperator):
    """Exact ``ITER^m`` / unbounded Kleene+ over sliding windows."""

    kind = "kleene-iterate"
    # Per-window candidates are re-sorted canonically before enumeration,
    # so regrouping same-window arrivals across sources cannot change the
    # emitted compositions.
    reorder_safe = True

    def __init__(
        self,
        window: WindowSpec,
        minimum: int,
        unbounded: bool = False,
        condition: ConditionFn | None = None,
        key_fn: KeyFn | None = None,
        emit_ts: Literal["min", "max"] = "max",
        name: str | None = None,
    ):
        super().__init__(name or f"kleene[{minimum}{'+' if unbounded else ''}]")
        if minimum < 1:
            raise ValueError(f"iteration count must be >= 1, got {minimum}")
        self.window = window
        self.assigner = SlidingWindowAssigner(window)
        self.minimum = minimum
        self.unbounded = unbounded
        self.condition = condition
        self.key_fn = key_fn or _global_key
        self.is_keyed = key_fn is not None
        self.emit_ts: Literal["min", "max"] = emit_ts
        self._by_key: dict[Any, tuple[list[int], list[Event]]] = {}
        self._handle = None
        self._next_window_index: int | None = None
        self._windows_fired = False
        self.windows_fired = 0
        self.combos_tested = 0
        self.matches_emitted = 0

    # -- introspection / metrics ------------------------------------------

    @property
    def key_parallel_safe(self) -> bool:
        return self.is_keyed

    def watermark_delay(self) -> int:
        return self.window.size

    def state_horizon_ms(self) -> int:
        return self.window.size

    def collect_metrics(self) -> dict[str, int | float]:
        metrics = super().collect_metrics()
        metrics["windows_fired"] = self.windows_fired
        metrics["combos_tested"] = self.combos_tested
        metrics["matches_emitted"] = self.matches_emitted
        return metrics

    # -- state ------------------------------------------------------------

    def setup(self, registry) -> None:
        super().setup(registry)
        self._handle = self._ensure_handle()

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = self.create_state("kleene-buffer")
        return self._handle

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap.update(
            by_key={
                key: (list(ts_list), list(events))
                for key, (ts_list, events) in self._by_key.items()
            },
            next_window_index=self._next_window_index,
            windows_fired_flag=self._windows_fired,
            windows_fired=self.windows_fired,
            combos_tested=self.combos_tested,
            matches_emitted=self.matches_emitted,
        )
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self._by_key = {
            key: (list(ts_list), list(events))
            for key, (ts_list, events) in snapshot["by_key"].items()
        }
        self._next_window_index = snapshot["next_window_index"]
        self._windows_fired = snapshot["windows_fired_flag"]
        self.windows_fired = snapshot["windows_fired"]
        self.combos_tested = snapshot["combos_tested"]
        self.matches_emitted = snapshot["matches_emitted"]
        handle = self._ensure_handle()
        handle.reset()
        total_bytes = 0
        total_items = 0
        for _ts_list, events in self._by_key.values():
            total_bytes += sum(e.size_bytes for e in events)
            total_items += len(events)
        if total_items:
            handle.adjust(total_bytes, total_items)

    # -- data path ---------------------------------------------------------

    def _entry(self, key: Any) -> tuple[list[int], list[Event]]:
        entry = self._by_key.get(key)
        if entry is None:
            entry = ([], [])
            self._by_key[key] = entry
        return entry

    def _advance_cursor(self, min_ts: int) -> None:
        first_index = self.assigner.indices_for(min_ts)[0]
        if self._next_window_index is None:
            self._next_window_index = first_index
        elif not self._windows_fired and first_index < self._next_window_index:
            self._next_window_index = first_index

    def process(self, item: Item, port: int = 0) -> Iterable[Item]:
        self.work_units += 1
        handle = self._ensure_handle()
        ts_list, events = self._entry(self.key_fn(item))
        ts = item.ts
        if ts_list and ts < ts_list[-1]:
            pos = bisect_right(ts_list, ts)
            ts_list.insert(pos, ts)
            events.insert(pos, item)
        else:
            ts_list.append(ts)
            events.append(item)
        handle.adjust(item.size_bytes, +1)
        self._advance_cursor(ts)
        return ()

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        if not items:
            return []
        n = len(items)
        self.work_units += n
        handle = self._ensure_handle()
        key_fn = self.key_fn
        added_bytes = 0
        min_ts = items[0].ts
        for item in items:
            ts_list, events = self._entry(key_fn(item))
            ts = item.ts
            if ts_list and ts < ts_list[-1]:
                pos = bisect_right(ts_list, ts)
                ts_list.insert(pos, ts)
                events.insert(pos, item)
            else:
                ts_list.append(ts)
                events.append(item)
            added_bytes += item.size_bytes
            if ts < min_ts:
                min_ts = ts
        handle.adjust(added_bytes, n)
        self._advance_cursor(min_ts)
        return []

    # -- firing ------------------------------------------------------------

    def _last_useful_index(self) -> int:
        newest = -(2**62)
        for ts_list, _events in self._by_key.values():
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
            for _key, (ts_list, events) in self._by_key.items():
                lo = bisect_left(ts_list, win.begin)
                hi = bisect_left(ts_list, win.end)
                if hi - lo < self.minimum:
                    continue
                self.windows_fired += 1
                self._enumerate_window(events[lo:hi], win.begin, out)
            k += 1
        self._next_window_index = k
        min_keep = k * self.window.slide
        empty = []
        for key, (ts_list, events) in self._by_key.items():
            cut = bisect_left(ts_list, min_keep)
            if cut:
                freed = sum(e.size_bytes for e in events[:cut])
                handle.adjust(-freed, -cut)
                del ts_list[:cut]
                del events[:cut]
            if not ts_list:
                empty.append(key)
        for key in empty:
            del self._by_key[key]
        return out

    def _enumerate_window(
        self, candidates: list[Event], begin: int, out: list[Item]
    ) -> None:
        """Emit the exact match set of one (key, window).

        ``candidates`` are the window's events in buffer (ts) order; they
        are canonically re-sorted and grouped into equal-ts contiguity
        runs, then walked depth-first picking at most one event per run.
        """
        candidates = sorted(candidates, key=lambda e: (e.ts, e.id, e.value))
        runs: list[list[Event]] = []
        run_ts: list[int] = []
        for event in candidates:
            if not run_ts or event.ts != run_ts[-1]:
                runs.append([event])
                run_ts.append(event.ts)
            else:
                runs[-1].append(event)
        minimum = self.minimum
        unbounded = self.unbounded
        condition = self.condition
        emit_max = self.emit_ts == "max"
        n_runs = len(runs)
        # Cross-window dedup: only the first window containing the newest
        # pick emits — the window whose last slide stripe holds it.
        stripe = begin + self.window.size - self.window.slide
        # Bounded ITER^m emits on its m-th pick only, so that pick starts
        # at the stripe's first run: earlier completions cannot emit here.
        final_start = 0 if unbounded else bisect_left(run_ts, stripe)
        from_parts = ComplexEvent.from_parts
        stack: list[Event] = []
        tested = emitted = 0

        def extend(run_index: int, stack_bytes: int) -> None:
            nonlocal tested, emitted
            size = len(stack) + 1
            if size == minimum and run_index < final_start:
                run_index = final_start
            for r in range(run_index, n_runs):
                for event in runs[r]:
                    tested += 1
                    if (
                        condition is not None
                        and stack
                        and not condition(stack[-1], event)
                    ):
                        continue
                    stack.append(event)
                    size_bytes = stack_bytes + event.size_bytes
                    if size >= minimum and event.ts >= stripe:
                        # Picks come from strictly increasing runs: the
                        # first and the last are the match's span.
                        first_ts = stack[0].ts
                        out.append(
                            from_parts(
                                tuple(stack),
                                first_ts,
                                event.ts,
                                event.ts if emit_max else first_ts,
                                size_bytes,
                            )
                        )
                        emitted += 1
                    if unbounded or size < minimum:
                        extend(r + 1, size_bytes)
                    stack.pop()

        extend(0, 64)
        self.combos_tested += tested
        self.matches_emitted += emitted
        self.work_units += len(candidates)

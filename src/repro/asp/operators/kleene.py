"""Exact Kleene iteration — the exact replacement for approximate O2.

Optimization O2 (``WindowAggregate`` + threshold filter) deliberately
approximates ``ITER^m``: it emits one count tuple per window instead of
one composition per qualifying event combination (paper Section 4.3.2).
The alternative the paper maps — a chain of ``m - 1`` theta self-joins —
is exact but re-tests O(n^m) pairs window by window and cannot express
*unbounded* Kleene+ at all (a join chain has a fixed arity).

:class:`KleeneIterOperator` closes that gap. It is a
:class:`~repro.asp.operators.window.SlidingWindowOperator` that buffers
the *events* and enumerates the exact match set per fired window:

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
  window containing it; a composition is emitted only from the first
  window containing all of it — the one whose last slide stripe holds
  its newest event (``SlidingWindowOperator._first_shared_from``), which
  also lets a bounded walk start its final pick at that stripe.

The result is byte-identical to the bounded join chain and extends to
unbounded Kleene+ with the oracle's exact semantics — the equivalence
suite checks both.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Literal

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.base import Item
from repro.asp.operators.window import KeyFn, SlidingWindowOperator, WindowSpec

ConditionFn = Callable[[Event, Event], bool]


class KleeneIterOperator(SlidingWindowOperator):
    """Exact ``ITER^m`` / unbounded Kleene+ over sliding windows."""

    kind = "kleene-iterate"
    # Per-window candidates are re-sorted canonically before enumeration,
    # so regrouping same-window arrivals across sources cannot change the
    # emitted compositions.
    reorder_safe = True
    counters = ("windows_fired", "combos_tested", "matches_emitted")
    buffer_keys = ("by_key",)

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
        if minimum < 1:
            raise ValueError(f"iteration count must be >= 1, got {minimum}")
        super().__init__(
            name or f"kleene[{minimum}{'+' if unbounded else ''}]", window, (key_fn,)
        )
        self.minimum = minimum
        self.unbounded = unbounded
        self.condition = condition
        self.emit_ts: Literal["min", "max"] = emit_ts
        self.windows_fired = 0
        self.combos_tested = 0
        self.matches_emitted = 0

    def _fire_window(self, begin: int, end: int, out: list[Item]) -> None:
        for _key, _ts_list, events, lo, hi in self._open_buffers()[0].spans(begin, end):
            if hi - lo < self.minimum:
                continue
            self.windows_fired += 1
            self._enumerate_window(events[lo:hi], begin, out)

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
        stripe = self._first_shared_from(begin)
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

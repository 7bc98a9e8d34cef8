"""Multi-way window join — the Beam-style variant of Listing 8.

Paper Section 4.2.2: "except Beam, no ASPS allows to specify multi-way
Window Joins, i.e., the composition of more than two streams per Window
Join"; a SEQ(n) then needs n−1 consecutive binary joins with event-time
re-assignment in between. This operator provides the Beam capability: a
single n-ary window join evaluating Listing 8 directly —

    SELECT * FROM Stream T1, Stream T2, Stream T3
    WHERE T1.ts < T2.ts AND T2.ts < T3.ts AND <predicates>
    Window [Range W, s]

One operator instance buffers all n inputs and, per complete sliding
window, enumerates the n-way cross product, applying the temporal-order
constraint and any composite predicate. Compared to the binary chain it
saves intermediate materialization but concentrates the whole pattern in
one stage — the trade-off the translator's ``use_multiway_joins`` option
lets experiments explore.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Literal, Sequence

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.operators.base import Item
from repro.asp.operators.window import KeyFn, SlidingWindowOperator, WindowSpec

#: Composite predicate over the candidate event tuple (one per input).
TupleTheta = Callable[[Sequence[Event]], bool]


class MultiWayWindowJoin(SlidingWindowOperator):
    """n-ary sliding window join (Beam semantics).

    ``ordered=True`` enforces strictly increasing timestamps across the
    input positions (the SEQ constraint of Listing 8); ``theta`` may add
    arbitrary composite predicates. With ``key_fn`` the join partitions
    into per-key sub-joins (O3-compatible). A combination is emitted only
    from the first window containing all of its events, keeping the
    output duplicate-free while paying the per-window enumeration cost.
    """

    kind = "multiway-window-join"
    # Each window's combinations are the product of its per-port slices:
    # regrouping same-window arrivals across sources changes the order
    # they are enumerated in, never the set.
    reorder_safe = True
    counters = ("tuples_tested", "tuples_emitted")

    def __init__(
        self,
        arity: int,
        window: WindowSpec,
        ordered: bool = True,
        theta: TupleTheta | None = None,
        key_fn: KeyFn | None = None,
        emit_ts: Literal["min", "max"] = "min",
        name: str | None = None,
    ):
        if arity < 2:
            raise ValueError("multi-way join requires at least two inputs")
        super().__init__(name or f"multiway-join[{arity}]", window, [key_fn] * arity)
        self.arity = arity
        self.ordered = ordered
        self.theta = theta
        self.emit_ts: Literal["min", "max"] = emit_ts
        self.tuples_tested = 0
        self.tuples_emitted = 0

    def _fire_window(self, begin: int, end: int, out: list[Item]) -> None:
        buffers = self._open_buffers()
        keys: set[Any] = set()
        for buf in buffers:
            keys.update(buf.by_key)
        tested = 0
        for key in keys:
            slices = [buf.slice(key, begin, end) for buf in buffers]
            if any(not s for s in slices):
                continue
            for combo in itertools.product(*slices):
                tested += 1
                timestamps = [item.ts for item in combo]
                if self.ordered and any(
                    a >= b for a, b in zip(timestamps, timestamps[1:])
                ):
                    continue
                events: list[Event] = []
                for item in combo:
                    events.extend(
                        item.events if isinstance(item, ComplexEvent) else (item,)
                    )
                if self.theta is not None and not self.theta(tuple(events)):
                    continue
                if not self._is_first_shared_window(begin, max(timestamps)):
                    continue
                ce = ComplexEvent(tuple(events))
                ce.ts = ce.ts_b if self.emit_ts == "min" else ce.ts_e
                self.tuples_emitted += 1
                out.append(ce)
        self.tuples_tested += tested
        self.work_units += tested

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

from typing import Callable, Iterable, Sequence

from repro.asp.datamodel import Event
from repro.asp.operators.base import Item
from repro.asp.operators.window import KeyFn, SlidingWindowOperator, WindowSpec

_BUILTIN_AGGREGATES: dict[str, Callable[[Sequence[float]], float]] = {
    "count": lambda values: float(len(values)),
    "sum": lambda values: float(sum(values)),
    "avg": lambda values: sum(values) / len(values),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
}


class WindowAggregate(SlidingWindowOperator):
    """Per-(key, sliding window) aggregate over an attribute.

    Emits one :class:`Event` per non-empty window with ``value`` set to the
    aggregate, ``ts`` set to the inclusive window end (``end - 1``, so the
    result respects the window's time bounds) and ``id`` set to the key.
    The window interval is attached in ``attrs`` for downstream reporting.
    """

    kind = "window-aggregate"
    counters = ("windows_fired",)
    buffer_keys = ("by_key",)

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
        if function not in _BUILTIN_AGGREGATES:
            raise ValueError(
                f"unknown aggregate '{function}'; expected one of {sorted(_BUILTIN_AGGREGATES)}"
            )
        # The buffer stores one (ts, value) pair per item — account the
        # stored footprint, not the incoming event's (which may carry
        # attrs); eviction removes the same 96 bytes per entry.
        super().__init__(
            name or f"window-{function}", window, (key_fn,), self._value, entry_bytes=96
        )
        self.function = function
        self.fn = _BUILTIN_AGGREGATES[function]
        self.attribute = attribute
        self.output_type = output_type
        self.windows_fired = 0

    def _value(self, item: Item) -> float:
        return float(item[self.attribute]) if isinstance(item, Event) else float(len(item))

    def watermark_delay(self) -> int:
        # A result carries its window's inclusive end, which the firing
        # watermark has only just passed: nothing lags behind it.
        return 0

    def _fire_window(self, begin: int, end: int, out: list[Item]) -> None:
        # Empty windows never fire (no Kleene*): spans() skips them.
        for key, ts_list, values, lo, hi in self._open_buffers()[0].spans(begin, end):
            self.work_units += hi - lo
            self.windows_fired += 1
            for value in self._fold(ts_list, values, lo, hi):
                out.append(
                    Event(
                        event_type=self.output_type,
                        ts=end - 1,
                        id=key,
                        value=value,
                        attrs={"window_begin": begin, "window_end": end, "count": hi - lo},
                    )
                )

    def _fold(
        self, ts_list: list[int], values: list[float], lo: int, hi: int
    ) -> Iterable[float]:
        """The result values of one non-empty (key, window): of the
        time-sorted ``values[lo:hi]``, buffered at ``ts_list[lo:hi]``."""
        return (self.fn(values[lo:hi]),)


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
            function="count",  # unused: _fold is overridden
            attribute=attribute,
            key_fn=key_fn,
            output_type=output_type,
            name=name or "window-udf",
        )
        self.udf = udf

    def _fold(
        self, ts_list: list[int], values: list[float], lo: int, hi: int
    ) -> Iterable[float]:
        return map(float, self.udf(list(zip(ts_list[lo:hi], values[lo:hi]))))


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

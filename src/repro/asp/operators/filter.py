"""Selection (sigma) — semantically identical in ASP and CEP (Section 2).

``FilterOperator`` evaluates a predicate per item and forwards the item
when it holds. Predicates are plain callables ``Item -> bool``; the SEA
layer compiles its declarative predicate trees down to such callables.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.asp.datamodel import ColumnarBatch
from repro.asp.operators.base import Item, Operator


class FilterOperator(Operator):
    kind = "filter"
    reorder_safe = True

    def __init__(self, predicate: Callable[[Item], bool], name: str | None = None):
        super().__init__(name or "filter")
        self.predicate = predicate
        # The SEA translator attaches a closure-compiled twin of its
        # tree-walking predicate as ``predicate.compiled``; the batch
        # path runs that. Per-event ``process`` keeps the original
        # callable — it is the reference semantics the compiled form is
        # validated against (the equivalence suite runs both).
        self.fast_predicate = getattr(predicate, "compiled", None) or predicate
        # Column twin: ``mask(store, indices) -> indices`` evaluating
        # the predicate over whole columns. Attached by the translator
        # when every pushdown conjunct is maskable.
        self.column_mask = getattr(predicate, "mask", None)
        self.passed = 0
        self.dropped = 0

    def process(self, item: Item, port: int = 0) -> Iterable[Item]:
        self.work_units += 1
        if self.predicate(item):
            self.passed += 1
            return (item,)
        self.dropped += 1
        return ()

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        # One predicate comprehension per run: no per-item tuple framing,
        # counters updated once per batch.
        predicate = self.fast_predicate
        out = [item for item in items if predicate(item)]
        n = len(items)
        self.work_units += n
        self.passed += len(out)
        self.dropped += n - len(out)
        return out

    def process_columnar(self, batch: ColumnarBatch, port: int = 0):
        mask = self.column_mask
        if mask is not None:
            kept = mask(batch.store, batch.iter_indices())
        else:
            # No compiled mask: run the row predicate by index, still
            # avoiding the materialized slice and keeping the output
            # columnar for downstream operators.
            predicate = self.fast_predicate
            events = batch.store.events
            kept = [i for i in batch.iter_indices() if predicate(events[i])]
        n = len(batch)
        self.work_units += n
        self.passed += len(kept)
        self.dropped += n - len(kept)
        if len(kept) == n:
            return batch
        return batch.select(kept)

    @property
    def observed_selectivity(self) -> float:
        total = self.passed + self.dropped
        return self.passed / total if total else 0.0


class TypeFilterOperator(FilterOperator):
    """Keep only events of one event type.

    The CEP operator approach forces the union of all input streams into
    one (Section 5.1.2); per-type filters like this one are how the mapped
    ASP pipeline routes a shared physical stream to per-type sub-plans.
    """

    kind = "type-filter"

    def __init__(self, event_type: str, name: str | None = None):
        self.event_type = event_type
        super().__init__(
            lambda item: getattr(item, "event_type", None) == event_type,
            name or f"type-filter[{event_type}]",
        )

    def process_columnar(self, batch: ColumnarBatch, port: int = 0):
        n = len(batch)
        self.work_units += n
        # A source whose store is uniformly this type routes the whole
        # batch through in O(1) — no per-event work at all. This is the
        # common case: each per-type sub-plan reads one physical stream.
        if batch.uniform_type is not None:
            if batch.uniform_type == self.event_type:
                self.passed += n
                return batch
            self.dropped += n
            return batch.select([])
        types = batch.column("event_type")
        wanted = self.event_type
        kept = [i for i in batch.iter_indices() if types[i] == wanted]
        self.passed += len(kept)
        self.dropped += n - len(kept)
        if len(kept) == n:
            return batch
        return batch.select(kept)

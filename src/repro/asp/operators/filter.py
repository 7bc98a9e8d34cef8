"""Selection (sigma) — semantically identical in ASP and CEP (Section 2).

``FilterOperator`` evaluates a predicate per item and forwards the item
when it holds. Predicates are plain callables ``Item -> bool``; the SEA
layer compiles its declarative predicate trees down to such callables.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.asp.operators.base import Item, Operator


class FilterOperator(Operator):
    kind = "filter"
    reorder_safe = True

    def __init__(self, predicate: Callable[[Item], bool], name: str | None = None):
        super().__init__(name or "filter")
        self.predicate = predicate
        # The SEA translator attaches the generated row filter of its
        # tree-walking predicate as ``predicate.keep`` (``keep(items) ->
        # survivors``, :func:`repro.sea.predicates.compile_mask`); any
        # other predicate runs as one comprehension per batch.
        self.keep = getattr(predicate, "keep", None) or (
            lambda items: [item for item in items if predicate(item)]
        )
        self.passed = 0
        self.dropped = 0

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        out = self.keep(items)
        n = len(items)
        self.work_units += n
        self.passed += len(out)
        self.dropped += n - len(out)
        return out

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
        self.keep = lambda items: [
            item for item in items if getattr(item, "event_type", None) == event_type
        ]

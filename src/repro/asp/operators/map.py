"""Projection (Pi) / map — semantically identical in ASP and CEP.

``MapOperator`` applies an arbitrary transformation per item.
``SchemaAlignOperator`` is the specialized map the disjunction mapping
inserts to establish union compatibility (paper Section 4.1), and
``KeyAssignOperator`` is the "assign a uniform key" map that emulates a
Cartesian product on systems lacking one (paper Section 4.2.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.asp.datamodel import Event
from repro.asp.operators.base import Item, Operator


class MapOperator(Operator):
    kind = "map"
    reorder_safe = True

    def __init__(self, fn: Callable[[Item], Item], name: str | None = None):
        super().__init__(name or "map")
        self.fn = fn

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.work_units += len(items)
        fn = self.fn
        return [fn(item) for item in items]


class FlatMapOperator(Operator):
    """Map producing zero or more outputs per input item."""

    kind = "flatmap"
    reorder_safe = True

    def __init__(self, fn: Callable[[Item], Iterable[Item]], name: str | None = None):
        super().__init__(name or "flatmap")
        self.fn = fn

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.work_units += len(items)
        fn = self.fn
        out: list[Item] = []
        for item in items:
            out.extend(fn(item))
        return out


class SchemaAlignOperator(Operator):
    """Rewrite events onto a target type/schema for union compatibility.

    ``renames`` maps source attribute names to target names; attributes
    not mentioned keep their name. ``target_type`` optionally rewrites the
    event type (the disjunction mapping unifies T1 and T2 into T1,2).
    """

    kind = "map"
    reorder_safe = True

    def __init__(
        self,
        target_type: str | None = None,
        renames: Mapping[str, str] | None = None,
        defaults: Mapping[str, Any] | None = None,
        name: str | None = None,
    ):
        super().__init__(name or "schema-align")
        self.target_type = target_type
        self.renames = dict(renames or {})
        self.defaults = dict(defaults or {})

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.work_units += len(items)
        return [self._align(item) for item in items]

    def _align(self, item: Item) -> Item:
        if not isinstance(item, Event):
            return item
        updates: dict[str, Any] = {}
        for src, dst in self.renames.items():
            if item.has_attribute(src):
                updates[dst] = item[src]
        for attr, default in self.defaults.items():
            if not item.has_attribute(attr):
                updates[attr] = default
        if self.target_type is not None:
            updates["event_type"] = self.target_type
        return item.with_attrs(**updates) if updates else item


class KeyAssignOperator(Operator):
    """Assign a key to every event.

    With ``key_fn=None`` every event receives the same constant key —
    the paper's workaround to express a Cartesian product as a keyed join
    (Section 4.2.1), at the cost of zero parallelization potential.
    With a real ``key_fn`` this is the partitioning map preceding an
    Equi Join (optimization O3).
    """

    kind = "map"
    reorder_safe = True

    CARTESIAN_KEY = "__all__"

    def __init__(self, key_fn: Callable[[Event], Any] | None = None, name: str | None = None):
        super().__init__(name or ("key-assign[uniform]" if key_fn is None else "key-assign"))
        self.key_fn = key_fn

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.work_units += len(items)
        key_fn = self.key_fn
        return [
            item.with_attrs(
                partition_key=self.CARTESIAN_KEY if key_fn is None else key_fn(item)
            )
            if isinstance(item, Event)
            else item
            for item in items
        ]

"""Key extraction and hash partitioning.

The mapped queries parallelize via Equi-Join keys (optimization O3):
events are partitioned by a key attribute (the paper uses the sensor
``id``), stateful operators run one instance per partition, and a shuffle
re-partitions between operators. The physical split is the sharded
execution backend's: :func:`repro.asp.graph.extract_shards` routes every
source event to shard ``partition_for(key, shards)`` and runs one
subgraph per shard.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.asp.datamodel import Event
from repro.asp.operators.base import Item, Operator

KeySelector = Callable[[Item], Hashable]


def key_by_attribute(name: str) -> KeySelector:
    """Key selector reading an event attribute (e.g. ``id``)."""

    def selector(item: Item) -> Hashable:
        if isinstance(item, Event):
            return item[name]
        # A composed match inherits the key of its first constituent —
        # Equi Joins guarantee all constituents share the key anyway.
        return item.events[0][name]

    return selector


def stable_hash(key: Hashable) -> int:
    """Deterministic non-negative hash, stable across processes.

    ``hash()`` is randomized for strings per interpreter run; experiments
    must partition identically on every run, so strings are hashed with a
    small FNV-1a instead.
    """
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, str):
        h = 2166136261
        for ch in key.encode():
            h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
        return h & 0x7FFFFFFF
    return hash(key) & 0x7FFFFFFF


def partition_for(key: Hashable, num_partitions: int) -> int:
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return stable_hash(key) % num_partitions


class KeyByOperator(Operator):
    """Annotate items with their partition key (logical key-by).

    In a distributed ASPS this operator implies a network shuffle; here it
    only records the key. The shuffle itself happens once, at the sources,
    when the sharded backend splits the plan.
    """

    kind = "key-by"
    reorder_safe = True

    def __init__(self, selector: KeySelector, name: str | None = None):
        super().__init__(name or "key-by")
        self.selector = selector
        self.seen_keys: set[Hashable] = set()

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.work_units += len(items)
        self.seen_keys.update(map(self.selector, items))
        return items

"""Bounded-state duplicate elimination.

Explicit windowing's overlapping substreams detect duplicate matches
(paper Section 3.1.4, impact 2): "duplicate matches are irrelevant for
idempotent actions but need to be maintained otherwise, e.g., by the
operator state." The joins in this library already emit duplicate-free
via the first-shared-window rule, but ``emit_duplicates=True`` pipelines
(and any user topology that rebuilds the raw behaviour) need exactly the
operator state the paper describes: this one.

State is bounded: a match's dedup key only needs to be remembered while
another window could still re-produce it, i.e. for the window size; the
watermark evicts older keys.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable, Sequence

from repro.asp.datamodel import ComplexEvent
from repro.asp.operators.base import Item, StatefulOperator
from repro.asp.time import Watermark

#: Approximate bytes per remembered dedup key.
_KEY_BYTES = 120


class DedupOperator(StatefulOperator):
    """Drop items whose dedup key was already seen within the window."""

    kind = "dedup"
    reorder_safe = True

    def __init__(self, window_size: int, unordered: bool = False,
                 name: str | None = None):
        super().__init__(name or "dedup")
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self.unordered = unordered
        # key -> newest assigned ts; insertion order ~ time order, so
        # eviction pops from the front.
        self._seen: "OrderedDict[tuple, int]" = OrderedDict()
        self._handle = None
        self.duplicates_dropped = 0

    @property
    def key_parallel_safe(self) -> bool:
        # A duplicate shares its constituents — and hence its key — with
        # the original, so both land on the same shard.
        return True

    def state_horizon_ms(self) -> int:
        # Seen keys are forgotten one window span behind the watermark.
        return self.window_size

    def setup(self, registry) -> None:
        super().setup(registry)
        self._handle = self._ensure_handle()

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = self.create_state("seen-keys")
        return self._handle

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        # OrderedDict insertion order is the eviction order — preserve it
        # as an explicit pair list.
        snap["seen"] = list(self._seen.items())
        snap["duplicates_dropped"] = self.duplicates_dropped
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self._seen = OrderedDict(snapshot["seen"])
        self.duplicates_dropped = snapshot["duplicates_dropped"]
        handle = self._ensure_handle()
        handle.reset()
        handle.adjust(_KEY_BYTES * len(self._seen), len(self._seen))

    def _key_of(self, item: Item) -> tuple:
        if isinstance(item, ComplexEvent):
            return item.ordered_dedup_key() if self.unordered else item.dedup_key()
        return (item.event_type, item.ts, item.id, item.value)

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        """First-seen-wins over the whole run; one ledger adjustment."""
        self.work_units += len(items)
        handle = self._ensure_handle()
        seen = self._seen
        key_of = self._key_of
        out: list[Item] = []
        added = 0
        for item in items:
            key = key_of(item)
            prev = seen.get(key)
            if prev is not None:
                self.duplicates_dropped += 1
                if item.ts > prev:
                    seen[key] = item.ts
                continue
            seen[key] = item.ts
            added += 1
            out.append(item)
        if added:
            handle.adjust(_KEY_BYTES * added, added)
        return out

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        """Evict keys no overlapping window can re-produce."""
        handle = self._ensure_handle()
        horizon = watermark.value - self.window_size
        evicted = 0
        while self._seen:
            _key, ts = next(iter(self._seen.items()))
            if ts >= horizon:
                break
            self._seen.popitem(last=False)
            evicted += 1
        if evicted:
            handle.adjust(-_KEY_BYTES * evicted, -evicted)
        return ()

"""UDF process functions — the NSEQ mapping's negation helper.

The negated sequence ``SEQ(T1, ¬T2, T3)`` maps to (paper Section 4.1):

1. union ``T1`` and ``T2``;
2. a UDF that, for each event ``e1 in T1``, finds the next occurrence of
   ``e2 in T2`` within ``W`` and attaches an auxiliary timestamp
   ``a_ts`` — ``a_ts = e2.ts`` when such an ``e2`` exists, else
   ``a_ts = e1.ts + W`` (meaning: no blocker seen);
3. a ``SEQ(T1, T3)`` join with the extra selection ``a_ts >= e3.ts``, which
   guarantees no ``e2`` occurred inside ``(e1.ts, e3.ts)``.

:class:`NextOccurrenceUdf` implements step 2. It buffers pending ``T1``
events; a ``T2`` arrival resolves every pending ``T1`` with
``e1.ts < e2.ts <= e1.ts + W``; the watermark resolves the rest with the
sentinel ``e1.ts + W``. This streaming evaluation is what lets the mapped
query avoid FlinkCEP's retrospective negation handling (Section 5.2.1).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.asp.datamodel import Event
from repro.asp.operators.base import Item, StatefulOperator, item_size_bytes
from repro.asp.time import Watermark

#: Attribute name under which the auxiliary timestamp is attached.
AUX_TS_ATTRIBUTE = "a_ts"


class NextOccurrenceUdf(StatefulOperator):
    """Attach ``a_ts`` (next T2 occurrence within W) to every T1 event.

    Consumes the (time-ordered) union of T1 and T2 on a single port and
    emits enriched T1 events only. Optionally keyed: with ``keyed=True``
    only a T2 event with the same ``id`` blocks a pending T1 event, which
    is the O3-compatible variant.
    """

    kind = "udf"

    def __init__(
        self,
        positive_type: str,
        negated_type: str,
        window_size: int,
        keyed: bool = False,
        name: str | None = None,
    ):
        super().__init__(name or f"next-occurrence[{positive_type} !{negated_type}]")
        if window_size <= 0:
            raise ValueError("window size must be positive")
        self.positive_type = positive_type
        self.negated_type = negated_type
        self.window_size = window_size
        self.keyed = keyed
        # Pending T1 events ordered by ts (append order == time order for
        # watermark-aligned input; small out-of-order is tolerated since
        # resolution conditions check timestamps explicitly).
        self._pending: list[Event] = []
        self._handle = None
        self.resolved_by_blocker = 0
        self.resolved_by_timeout = 0

    @property
    def key_parallel_safe(self) -> bool:
        return self.keyed

    def setup(self, registry) -> None:
        super().setup(registry)
        self._handle = self._ensure_handle()

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = self.create_state("pending-T1")
        return self._handle

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap.update(
            pending=list(self._pending),
            resolved_by_blocker=self.resolved_by_blocker,
            resolved_by_timeout=self.resolved_by_timeout,
        )
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self._pending = list(snapshot["pending"])
        self.resolved_by_blocker = snapshot["resolved_by_blocker"]
        self.resolved_by_timeout = snapshot["resolved_by_timeout"]
        handle = self._ensure_handle()
        handle.reset()
        if self._pending:
            handle.adjust(
                sum(item_size_bytes(e) for e in self._pending), len(self._pending)
            )

    def watermark_delay(self) -> int:
        # A pending T1 event is held until its window elapses.
        return self.window_size

    def state_horizon_ms(self) -> int:
        # Pending T1 events resolve (emit or drop) after one window span.
        return self.window_size

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.work_units += len(items)
        handle = self._ensure_handle()
        out: list[Item] = []
        for item in items:
            if not isinstance(item, Event):
                continue
            if item.event_type == self.positive_type:
                self._pending.append(item)
                handle.adjust(item_size_bytes(item), +1)
            elif item.event_type == self.negated_type:
                out += self._resolve_with_blocker(item)
            # Other types may share the physical stream; ignore them.
        return out

    def _resolve_with_blocker(self, blocker: Event) -> list[Event]:
        out: list[Event] = []
        keep: list[Event] = []
        handle = self._ensure_handle()
        bts = blocker.ts
        for pending in self._pending:
            self.work_units += 1
            in_window = pending.ts < bts <= pending.ts + self.window_size
            same_key = not self.keyed or pending.id == blocker.id
            if in_window and same_key:
                out.append(pending.with_attrs(**{AUX_TS_ATTRIBUTE: bts}))
                handle.adjust(-item_size_bytes(pending), -1)
                self.resolved_by_blocker += 1
            elif bts > pending.ts + self.window_size:
                # Watermark may lag; resolve expired entries here as well.
                out.append(
                    pending.with_attrs(**{AUX_TS_ATTRIBUTE: pending.ts + self.window_size})
                )
                handle.adjust(-item_size_bytes(pending), -1)
                self.resolved_by_timeout += 1
            else:
                keep.append(pending)
        self._pending = keep
        return out

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        """Resolve every pending T1 whose window fully elapsed: no T2
        arrived within W, so ``a_ts = e1.ts + W``."""
        out: list[Event] = []
        keep: list[Event] = []
        handle = self._ensure_handle()
        for pending in self._pending:
            if pending.ts + self.window_size <= watermark.value:
                out.append(
                    pending.with_attrs(**{AUX_TS_ATTRIBUTE: pending.ts + self.window_size})
                )
                handle.adjust(-item_size_bytes(pending), -1)
                self.resolved_by_timeout += 1
            else:
                keep.append(pending)
        self._pending = keep
        return out

"""Sinks: terminal consumers of the dataflow.

The paper measures throughput and *detection latency* — the difference
between the wall-clock time a match reaches the sink and the maximum
event (creation) time contributing to it (Section 5.1.3).
:class:`LatencySink` implements exactly that bookkeeping.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, List, Sequence

from repro.asp.datamodel import ComplexEvent
from repro.asp.operators.base import Item, Operator


class Sink(Operator):
    """Base sink: swallow items, count them."""

    kind = "sink"
    reorder_safe = True
    #: Name of the attribute holding what this sink retains, a list that
    #: only grows at its end (None: retains nothing). A checkpoint counts
    #: the list and journals its new suffix (``fault.checkpoint``).
    retains: str | None = None

    def __init__(self, name: str | None = None):
        super().__init__(name or "sink")
        self.count = 0

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.count += len(items)
        accept = self.accept
        for item in items:
            accept(item)
        return []

    def accept(self, item: Item) -> None:  # pragma: no cover - trivial default
        pass

    def collect_metrics(self) -> dict[str, int | float]:
        metrics = super().collect_metrics()
        metrics["items_accepted"] = self.count
        return metrics

    def snapshot_state(self) -> dict[str, Any]:
        # Sinks are part of the checkpoint so a recovered run does not
        # double-emit: replay resumes with the exact sink content the
        # checkpoint observed (effectively-once output). What a sink
        # retains is counted by the cut and held by the output journal.
        snap = super().snapshot_state()
        snap["count"] = self.count
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        """``snapshot`` carries the retained list under its attribute
        name (``restore_job_state`` puts it there from the journal)."""
        super().restore_state(snapshot)
        self.count = snapshot["count"]
        if self.retains:
            setattr(self, self.retains, list(snapshot[self.retains]))


class DiscardSink(Sink):
    """Count-only sink for throughput runs (no retention)."""

    def __init__(self, name: str | None = None):
        super().__init__(name or "discard-sink")

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.count += len(items)
        return []


class CollectSink(Sink):
    """Retain every item; used by correctness tests and examples."""

    retains = "items"

    def __init__(self, name: str | None = None):
        super().__init__(name or "collect-sink")
        self.items: List[Item] = []

    def accept(self, item: Item) -> None:
        self.items.append(item)

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.count += len(items)
        self.items.extend(items)
        return []

    def matches(self) -> list[ComplexEvent]:
        return [i for i in self.items if isinstance(i, ComplexEvent)]

    def unique_matches(self) -> set[ComplexEvent]:
        """Matches after duplicate elimination (semantic equivalence is
        defined up to duplicates, after Negri et al. — paper Section 4)."""
        return set(self.matches())


class CallbackSink(Sink):
    """Invoke a user callback per item (used by the examples)."""

    def __init__(self, callback: Callable[[Item], None], name: str | None = None):
        super().__init__(name or "callback-sink")
        self.callback = callback

    def accept(self, item: Item) -> None:
        self.callback(item)


class LatencySink(Sink):
    """Record detection latency per match.

    Latency = (wall-clock arrival at the sink) − (creation wall-clock time
    of the latest contributing event). Sources stamp events with a
    creation wall-clock time in ``attrs['created_wall']``; when absent we
    fall back to the match's ``detection_ts`` bookkeeping.
    """

    retains = "latencies_s"

    def __init__(self, name: str | None = None):
        super().__init__(name or "latency-sink")
        self.latencies_s: list[float] = []
        self._wall_clock: Callable[[], float] | None = None

    def set_wall_clock(self, clock: Callable[[], float]) -> None:
        """Read wall time from the job's shared clock instead of the raw
        counter, so injected slow-operator delays appear in latencies."""
        self._wall_clock = clock

    def accept(self, item: Item) -> None:
        now = self._wall_clock() if self._wall_clock is not None else _time.perf_counter()
        if isinstance(item, ComplexEvent):
            created = max(
                (e.attrs or {}).get("created_wall", now) for e in item.events
            )
        else:
            created = (getattr(item, "attrs", None) or {}).get("created_wall", now)
        self.latencies_s.append(max(0.0, now - created))

    def mean_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    def percentile_latency_s(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        idx = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[idx]


class EventTimeLatencySink(Sink):
    """Detection lag in *event time*: how far the stream had progressed
    (max source timestamp) when a match reached the sink, minus the
    match's last contributing event time.

    This isolates the windowing-strategy component of the paper's
    detection latency: eager operators (interval joins, the NFA) emit at
    lag ~0, while sliding windows hold results until the watermark passes
    the window end — an overhead upper-bounded by the slide plus the
    watermark cadence (paper Section 3.1.4). The executor wires
    :meth:`set_event_clock` at setup.
    """

    retains = "lags_ms"

    def __init__(self, name: str | None = None):
        super().__init__(name or "event-time-latency-sink")
        self.lags_ms: list[int] = []
        self._event_clock: Callable[[], int] | None = None

    def set_event_clock(self, clock: Callable[[], int]) -> None:
        self._event_clock = clock

    def accept(self, item: Item) -> None:
        if self._event_clock is None:
            return
        now = self._event_clock()
        emitted_at = item.ts_e if isinstance(item, ComplexEvent) else item.ts
        self.lags_ms.append(max(0, now - emitted_at))

    def mean_lag_ms(self) -> float:
        if not self.lags_ms:
            return 0.0
        return sum(self.lags_ms) / len(self.lags_ms)

    def max_lag_ms(self) -> int:
        return max(self.lags_ms, default=0)

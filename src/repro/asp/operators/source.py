"""Sources: feed finite event collections into the dataflow.

The paper deliberately excludes external connectors and reads fixed CSV
extracts through "a simple source operator" (Section 5.1.2); we mirror
that with list- and CSV-backed sources. Sources are not operators on the
data path — the executor pulls from them and injects items into the graph
together with generated watermarks.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.asp.datamodel import Event


class Source:
    """Base class: an iterable of events with a name and type hint."""

    def __init__(self, name: str, event_type: str | None = None):
        self.name = name
        self.event_type = event_type
        #: Events pulled from this source so far, replayed ones included.
        self.emitted = 0

    def events(self) -> Iterator[Event]:
        raise NotImplementedError

    def materialized(self) -> "Sequence[Event] | None":
        """The full event sequence, if it exists in memory.

        The batched scheduler merges random-access sources with bisect
        instead of a per-event heap; sources that stream (generators,
        throttled wrappers) return ``None`` and take the generic path.
        """
        return None

    def __iter__(self) -> Iterator[Event]:
        for event in self.events():
            self.emitted += 1
            yield event


class ListSource(Source):
    """Source over an in-memory event sequence (assumed time-ordered)."""

    def __init__(self, events: Sequence[Event], name: str = "list-source",
                 event_type: str | None = None):
        super().__init__(name, event_type)
        self._events = list(events)

    def events(self) -> Iterator[Event]:
        return iter(self._events)

    def materialized(self) -> Sequence[Event]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)


class LogSource(ListSource):
    """A :class:`ListSource` over a list its owner keeps appending to.

    The list is not copied: ``materialized()`` is the list itself, so
    every run sees what has been appended since the last one and reads it
    from its offset (``repro serve``'s ingestion log).
    """

    def __init__(self, log: list[Event], name: str = "log-source",
                 event_type: str | None = None):
        Source.__init__(self, name, event_type)
        self._events = log


class GeneratorSource(Source):
    """Source over a generator factory (re-iterable)."""

    def __init__(self, factory: Callable[[], Iterable[Event]],
                 name: str = "generator-source", event_type: str | None = None):
        super().__init__(name, event_type)
        self._factory = factory

    def events(self) -> Iterator[Event]:
        return iter(self._factory())


class CsvSource(Source):
    """Source reading the CSV layout written by :mod:`repro.workloads.csvio`.

    Columns: ``type,ts,id,value,lat,lon`` with a header row.
    """

    def __init__(self, path: str | Path, name: str | None = None,
                 event_type: str | None = None):
        self.path = Path(path)
        super().__init__(name or f"csv-source[{self.path.name}]", event_type)

    def events(self) -> Iterator[Event]:
        from repro.workloads.csvio import read_events

        return iter(read_events(self.path))


class ThrottledSource(Source):
    """Wrap a source with a target ingestion rate (tuples/second).

    The executor does not sleep; the rate is bookkeeping consumed by the
    backpressure model in :mod:`repro.runtime.harness`, which compares the
    requested rate against the measured processing rate.
    """

    def __init__(self, inner: Source, rate_tps: float):
        if rate_tps <= 0:
            raise ValueError("ingestion rate must be positive")
        super().__init__(f"throttled[{inner.name}@{rate_tps:g}tps]", inner.event_type)
        self.inner = inner
        self.rate_tps = rate_tps

    def events(self) -> Iterator[Event]:
        return iter(self.inner.events())

"""Data model shared by the ASP and CEP engines (paper Section 2, model 1).

The paper observes that the data models of both stream processing
paradigms are equivalent: a CEP *event* is an ASP *tuple* with a
mandatory timestamp attribute and an (explicit or inferable) event type.
This module provides that unified representation:

* :class:`Event` — a timestamped tuple. Carries the paper's common sensor
  schema ``(id, lat, lon, ts, value)`` as fast slot attributes plus an
  optional ``attrs`` mapping for additional attributes.
* :class:`ComplexEvent` — a pattern match ``ce(e1, ..., en, ts_b, ts_e)``
  composed of the participating events, where ``ts_b``/``ts_e`` are the
  timestamps of the first/last contributing event.
* :class:`Schema` — an ordered attribute list with union-compatibility
  checks (needed by the disjunction mapping, paper Section 4.1).
* :class:`EventTypeInfo` / :class:`TypeRegistry` — declarations of the
  universe of event types (the paper's epsilon = {T1, ..., Tn}).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError

# Attributes every event carries as dedicated slots. This mirrors the
# paper's POJO with the common schema (id, lat, lon, ts, value) used for
# all QnV and AQ measurements (Section 5.1.3).
CORE_ATTRIBUTES = ("id", "lat", "lon", "ts", "value")


class Event:
    """A timestamped tuple of a stream — the unified CEP/ASP data item.

    Parameters
    ----------
    event_type:
        Name of the event type (``Q``, ``V``, ``PM10``, ...). The paper
        writes ``e in T`` for "event e is an instance of type T".
    ts:
        Event time in integer milliseconds since an arbitrary epoch. Each
        producer emits discretely increasing timestamps (paper Section 2).
    id:
        Producer / sensor identifier; doubles as the partitioning key for
        the O3 optimization.
    value:
        Primary measurement value.
    lat, lon:
        Sensor coordinates (kept for schema fidelity with the paper).
    attrs:
        Optional mapping with additional attributes beyond the core schema.
    """

    __slots__ = ("event_type", "ts", "id", "value", "lat", "lon", "attrs", "size_bytes")

    def __init__(
        self,
        event_type: str,
        ts: int,
        id: Any = 0,
        value: float = 0.0,
        lat: float = 0.0,
        lon: float = 0.0,
        attrs: Mapping[str, Any] | None = None,
    ):
        self.event_type = event_type
        self.ts = ts
        self.id = id
        self.value = value
        self.lat = lat
        self.lon = lon
        self.attrs = dict(attrs) if attrs else None
        # Cached footprint: state accounting reads this on every buffer
        # insert/evict, and events are immutable once emitted.
        size = 96  # object header + slot references
        if self.attrs:
            size += 48 + 64 * len(self.attrs)
        self.size_bytes = size

    def __getitem__(self, name: str) -> Any:
        """Attribute access by name, used by predicate evaluation."""
        if name == "ts":
            return self.ts
        if name == "value":
            return self.value
        if name == "id":
            return self.id
        if name == "lat":
            return self.lat
        if name == "lon":
            return self.lon
        if name == "type" or name == "event_type":
            return self.event_type
        if self.attrs is not None and name in self.attrs:
            return self.attrs[name]
        raise SchemaError(f"event of type '{self.event_type}' has no attribute '{name}'")

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except SchemaError:
            return default

    def has_attribute(self, name: str) -> bool:
        if name in ("ts", "value", "id", "lat", "lon", "type", "event_type"):
            return True
        return self.attrs is not None and name in self.attrs

    def with_attrs(self, **updates: Any) -> "Event":
        """Return a copy with ``updates`` merged into the extra attributes.

        Core attributes (``ts``, ``value``, ...) may also be overridden by
        name. The original event is left untouched (events are treated as
        immutable once emitted into a stream).
        """
        core = {
            "event_type": self.event_type,
            "ts": self.ts,
            "id": self.id,
            "value": self.value,
            "lat": self.lat,
            "lon": self.lon,
        }
        extras = dict(self.attrs) if self.attrs else {}
        for name, val in updates.items():
            if name in core:
                core[name] = val
            else:
                extras[name] = val
        return Event(attrs=extras or None, **core)

    def approx_size_bytes(self) -> int:
        """Rough in-memory footprint, used by the state accounting."""
        return self.size_bytes

    def as_dict(self) -> dict[str, Any]:
        out = {
            "type": self.event_type,
            "ts": self.ts,
            "id": self.id,
            "value": self.value,
            "lat": self.lat,
            "lon": self.lon,
        }
        if self.attrs:
            out.update(self.attrs)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.event_type == other.event_type
            and self.ts == other.ts
            and self.id == other.id
            and self.value == other.value
            and self.lat == other.lat
            and self.lon == other.lon
            and (self.attrs or {}) == (other.attrs or {})
        )

    def __hash__(self) -> int:
        return hash((self.event_type, self.ts, self.id, self.value))

    def __repr__(self) -> str:
        return f"Event({self.event_type}, ts={self.ts}, id={self.id}, value={self.value})"


class ComplexEvent:
    """A pattern match ``ce(e1, ..., en, ts_b, ts_e)`` (paper Section 2).

    ``ts_b`` and ``ts_e`` are the timestamps of the earliest and latest
    contributing event. Matches compare equal on their contributing event
    identity, which is what duplicate elimination (the paper's semantic
    equivalence after Negri et al.) operates on.
    """

    __slots__ = ("events", "ts_b", "ts_e", "ts", "detection_ts", "size_bytes")

    def __init__(
        self,
        events: Sequence[Event],
        detection_ts: int | None = None,
        ts: int | None = None,
    ):
        if not events:
            raise ValueError("a complex event must contain at least one event")
        self.events: tuple[Event, ...] = tuple(events)
        self.ts_b = min(e.ts for e in self.events)
        self.ts_e = max(e.ts for e in self.events)
        # Assigned event time for downstream windowing. Per paper Section
        # 4.2.2, a *partial* match of a nested pattern carries the minimum
        # timestamp of its pair so that subsequent window joins enforce the
        # strictest |e_i.ts - e_j.ts| < W constraint; a *complete* match
        # carries the maximum. Joins set this explicitly; the default is
        # the conservative minimum.
        self.ts = ts if ts is not None else self.ts_b
        # Wall-clock-ish time at which the match left the detecting
        # operator; used for detection-latency measurements.
        self.detection_ts = detection_ts
        self.size_bytes = 64 + sum(e.size_bytes for e in self.events)

    @staticmethod
    def from_parts(
        events: tuple[Event, ...], ts_b: int, ts_e: int, ts: int, size_bytes: int
    ) -> "ComplexEvent":
        """Compose a match in O(1) from what its parts already carry.

        The caller guarantees ``ts_b``/``ts_e`` are the extremes of
        ``events`` and ``size_bytes`` is ``64 +`` their sizes — true
        whenever a match is built from parts that each know their own
        span and size (a join pair, a strictly increasing Kleene pick).
        Field for field what ``ComplexEvent(events, ts=ts)`` yields,
        without re-deriving any of it from the leaves.
        """
        ce = object.__new__(ComplexEvent)
        ce.events = events
        ce.ts_b = ts_b
        ce.ts_e = ts_e
        ce.ts = ts
        ce.detection_ts = None
        ce.size_bytes = size_bytes
        return ce

    @property
    def duration(self) -> int:
        return self.ts_e - self.ts_b

    def dedup_key(self) -> tuple:
        """Identity of the match for duplicate elimination.

        Two matches are duplicates when they are composed of the same
        events regardless of which overlapping window produced them.
        """
        return tuple((e.event_type, e.ts, e.id, e.value) for e in self.events)

    def ordered_dedup_key(self) -> tuple:
        """Dedup key insensitive to the order of contributing events."""
        return tuple(sorted((e.event_type, e.ts, e.id, e.value) for e in self.events))

    def approx_size_bytes(self) -> int:
        return self.size_bytes

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexEvent):
            return NotImplemented
        return self.dedup_key() == other.dedup_key()

    def __hash__(self) -> int:
        return hash(self.dedup_key())

    def __repr__(self) -> str:
        types = ",".join(e.event_type for e in self.events)
        return f"ComplexEvent([{types}], ts_b={self.ts_b}, ts_e={self.ts_e})"


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute of a schema."""

    name: str
    dtype: type = float

    def compatible_with(self, other: "Attribute") -> bool:
        return self.name == other.name and self.dtype == other.dtype


@dataclass(frozen=True)
class Schema:
    """An ordered attribute list shared by all tuples of a stream."""

    attributes: tuple[Attribute, ...]

    @staticmethod
    def of(*names: str, dtype: type = float) -> "Schema":
        return Schema(tuple(Attribute(n, dtype) for n in names))

    @staticmethod
    def sensor_schema() -> "Schema":
        """The paper's common sensor schema ``(id, lat, lon, ts, value)``."""
        return Schema(
            (
                Attribute("id", int),
                Attribute("lat", float),
                Attribute("lon", float),
                Attribute("ts", int),
                Attribute("value", float),
            )
        )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.attributes)

    def union_compatible(self, other: "Schema") -> bool:
        """True when both schemata have pairwise compatible attributes.

        Union compatibility is the precondition of the disjunction
        mapping (paper Section 4.1); a ``map`` operator can be inserted to
        establish it otherwise.
        """
        if len(self.attributes) != len(other.attributes):
            return False
        return all(a.compatible_with(b) for a, b in zip(self.attributes, other.attributes))

    def require_union_compatible(self, other: "Schema") -> None:
        if not self.union_compatible(other):
            raise SchemaError(
                f"schemas are not union compatible: {self.names} vs {other.names}"
            )


@dataclass
class EventTypeInfo:
    """Declaration of one event type of the universe epsilon."""

    name: str
    schema: Schema = field(default_factory=Schema.sensor_schema)
    description: str = ""
    # Mean inter-event gap (ms) of a single producer of this type; used by
    # frequency-aware optimizations such as join reordering (Section 5.2.3).
    mean_period_ms: int | None = None


class TypeRegistry:
    """The universe of event types epsilon = {T1, ..., Tn}.

    The registry is consulted by the pattern validator (do the referenced
    types exist?), by the disjunction mapping (union compatibility), and
    by frequency-aware join reordering.
    """

    def __init__(self, types: Iterable[EventTypeInfo] = ()):
        self._types: dict[str, EventTypeInfo] = {}
        for t in types:
            self.register(t)

    def register(self, info: EventTypeInfo) -> EventTypeInfo:
        if info.name in self._types:
            raise SchemaError(f"event type '{info.name}' is already registered")
        self._types[info.name] = info
        return info

    def declare(self, name: str, schema: Schema | None = None, **kwargs: Any) -> EventTypeInfo:
        return self.register(EventTypeInfo(name, schema or Schema.sensor_schema(), **kwargs))

    def get(self, name: str) -> EventTypeInfo:
        try:
            return self._types[name]
        except KeyError:
            raise SchemaError(f"unknown event type '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[EventTypeInfo]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)

    def names(self) -> tuple[str, ...]:
        return tuple(self._types)

    @staticmethod
    def paper_default() -> "TypeRegistry":
        """Registry with the six event types of the paper's evaluation."""
        reg = TypeRegistry()
        minute = 60_000
        reg.declare("Q", description="QnV traffic: vehicle quantity", mean_period_ms=minute)
        reg.declare("V", description="QnV traffic: average velocity", mean_period_ms=minute)
        reg.declare("PM10", description="AQ SDS011: particulate matter 10um", mean_period_ms=4 * minute)
        reg.declare("PM2", description="AQ SDS011: particulate matter 2.5um", mean_period_ms=4 * minute)
        reg.declare("TEMP", description="AQ DHT22: temperature", mean_period_ms=4 * minute)
        reg.declare("HUM", description="AQ DHT22: humidity", mean_period_ms=4 * minute)
        return reg


def merge_events(*sources: Iterable[Event]) -> list[Event]:
    """Merge several event iterables into a single stream ordered by time.

    Ties are broken deterministically by (ts, type, id) so that repeated
    runs produce identical streams.
    """
    merged = list(itertools.chain.from_iterable(sources))
    merged.sort(key=lambda e: (e.ts, e.event_type, e.id))
    return merged

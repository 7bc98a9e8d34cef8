"""Wire format of the ingestion plane: NDJSON events and heartbeats.

One message per line, JSON-encoded. Three message kinds:

* an **event**::

      {"type": "Q", "ts": 60000, "id": 3, "value": 81.5,
       "source": "gen-1", "seq": 17}

  ``type`` and ``ts`` are mandatory; ``id``/``value``/``lat``/``lon``
  default like :class:`~repro.asp.datamodel.Event`; unknown keys land in
  ``attrs``. ``source``/``seq`` are optional producer metadata: when
  present, the server deduplicates replayed sequence numbers per source
  (idempotent ingestion) and counts gaps.

* a **watermark heartbeat**::

      {"watermark": 120000, "source": "gen-1"}

  advances the named source's ingest watermark and asks the job manager
  to flush queued events into a processing round.

* an **op** message — ``{"op": "sync"}`` requests an ingestion summary
  on the same connection (the TCP path's acknowledgment barrier).

Parsing is strict: anything else raises :class:`WireError` with a stable
``code``, which the servers surface as a structured error (HTTP 400 /
TCP error line), never a stack trace.
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Iterable, Iterator, Mapping

from repro.asp.datamodel import Event

#: Core Event attributes settable from the wire.
_CORE_KEYS = ("type", "ts", "id", "value", "lat", "lon")
#: Wire-level metadata keys that never become event attributes.
_META_KEYS = ("source", "seq")


class WireError(ValueError):
    """A malformed ingestion line; ``code`` is stable and kebab-case."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def as_dict(self) -> dict[str, str]:
        return {"code": self.code, "message": str(self)}


def event_from_wire(doc: Mapping[str, Any]) -> Event:
    """Build an :class:`Event` from a decoded wire document."""
    event_type = doc.get("type")
    if not isinstance(event_type, str) or not event_type:
        raise WireError("bad-event", "event needs a non-empty string 'type'")
    ts = doc.get("ts")
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise WireError("bad-event", "event needs an integer 'ts' (ms)")
    value = doc.get("value", 0.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError("bad-event", "'value' must be a number")
    lat = doc.get("lat", 0.0)
    lon = doc.get("lon", 0.0)
    if any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in (lat, lon)):
        raise WireError("bad-event", "'lat'/'lon' must be numbers")
    attrs = {
        key: val
        for key, val in doc.items()
        if key not in _CORE_KEYS and key not in _META_KEYS
    }
    return Event(
        event_type,
        ts=ts,
        id=doc.get("id", 0),
        value=float(value),
        lat=float(lat),
        lon=float(lon),
        attrs=attrs or None,
    )


def event_to_wire(
    event: Event, source: str | None = None, seq: int | None = None
) -> dict[str, Any]:
    """The wire document of ``event`` (inverse of :func:`event_from_wire`)."""
    doc: dict[str, Any] = {
        "type": event.event_type,
        "ts": event.ts,
        "id": event.id,
        "value": event.value,
        "lat": event.lat,
        "lon": event.lon,
    }
    if event.attrs:
        doc.update(event.attrs)
    if source is not None:
        doc["source"] = source
    if seq is not None:
        doc["seq"] = seq
    return doc


def parse_wire_line(line: str | bytes) -> dict[str, Any]:
    """Decode one NDJSON line into a message dict.

    Returns ``{"kind": "event", "event": Event, "source": ..., "seq": ...,
    "line": str}`` (``line``: the stripped text, one JSON object — what
    the WAL records), ``{"kind": "watermark", "ts": int, "source": ...}``
    or ``{"kind": "op", "op": str}``.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError("bad-encoding", f"line is not valid UTF-8: {exc}") from None
    text = line.strip()
    if not text:
        raise WireError("empty-line", "blank ingestion line")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError("bad-json", f"line is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise WireError("bad-json", "ingestion line must be a JSON object")
    if "op" in doc:
        op = doc["op"]
        if op not in ("sync", "bye"):
            raise WireError("bad-op", f"unknown op {op!r} (expected 'sync' or 'bye')")
        return {"kind": "op", "op": op}
    source = doc.get("source")
    if source is not None and not isinstance(source, str):
        raise WireError("bad-event", "'source' must be a string")
    if "watermark" in doc:
        wm = doc["watermark"]
        if isinstance(wm, bool) or not isinstance(wm, int):
            raise WireError("bad-watermark", "'watermark' must be an integer ts")
        return {"kind": "watermark", "ts": wm, "source": source}
    seq = doc.get("seq")
    if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int)):
        raise WireError("bad-event", "'seq' must be an integer")
    return {
        "kind": "event",
        "event": event_from_wire(doc),
        "source": source,
        "seq": seq,
        "line": text,
    }


class SourceTracker:
    """Per-source sequence numbers and watermark heartbeats.

    The dedup horizon is a high-water mark per source. ``check`` is the
    idempotence gate: a sequence number at or below the horizon is a
    *duplicate* (the producer retransmitted after a timeout) and must
    not be ingested twice. ``advance`` moves the horizon once the event
    is taken; a jump beyond ``last + 1`` is counted as a *gap* but still
    taken — the engine's watermarking, not the transport, owns
    completeness. Events without ``source``/``seq`` always pass.
    """

    def __init__(self) -> None:
        self.last_seq: dict[str, int] = {}
        self.watermarks: dict[str, int] = {}
        self.duplicates = 0
        self.gaps = 0
        self.events = 0

    def check(self, source: str | None, seq: int | None) -> bool:
        """True when the event is new; False for a replayed duplicate.
        The horizon does not move: :meth:`advance` moves it."""
        self.events += 1
        if source is None or seq is None:
            return True
        last = self.last_seq.get(source)
        if last is not None and seq <= last:
            self.duplicates += 1
            return False
        return True

    def advance(self, source: str | None, seq: int | None) -> None:
        """Move the horizon to a checked event that was taken."""
        if source is None or seq is None:
            return
        last = self.last_seq.get(source)
        if last is not None and seq > last + 1:
            self.gaps += 1
        self.last_seq[source] = seq

    def record(self, source: str | None, seq: int | None) -> None:
        """Forced replay update: advance ``last_seq`` with no dup/gap
        accounting.

        Used when the durable ingestion log is replayed after a restart —
        every replayed line was *already* admitted by a previous
        incarnation, so the dedup horizon must advance exactly to where
        it was, without recounting the events as fresh traffic.
        """
        if source is None or seq is None:
            return
        last = self.last_seq.get(source)
        if last is None or seq > last:
            self.last_seq[source] = seq

    def snapshot(self) -> dict[str, Any]:
        """Durable dedup/watermark state; inverse of :meth:`restore`."""
        return {
            "last_seq": dict(self.last_seq),
            "watermarks": dict(self.watermarks),
            "duplicates": self.duplicates,
            "gaps": self.gaps,
            "events": self.events,
        }

    def restore(self, data: Mapping[str, Any]) -> None:
        """Restore a :meth:`snapshot`; replayed duplicates stay dropped."""
        self.last_seq = {str(k): int(v) for k, v in data.get("last_seq", {}).items()}
        self.watermarks = {
            str(k): int(v) for k, v in data.get("watermarks", {}).items()
        }
        self.duplicates = int(data.get("duplicates", 0))
        self.gaps = int(data.get("gaps", 0))
        self.events = int(data.get("events", 0))

    def heartbeat(self, source: str | None, ts: int) -> None:
        key = source or ""
        if ts > self.watermarks.get(key, -1):
            self.watermarks[key] = ts

    def min_watermark(self) -> int | None:
        """The slowest source's watermark (None before any heartbeat)."""
        if not self.watermarks:
            return None
        return min(self.watermarks.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "events": self.events,
            "duplicates": self.duplicates,
            "gaps": self.gaps,
            "sources": {
                name: {
                    "last_seq": self.last_seq.get(name),
                    "watermark": self.watermarks.get(name),
                }
                for name in sorted(set(self.last_seq) | set(self.watermarks))
            },
        }


def merge_streams_for_wire(
    streams: Mapping[str, Iterable[Event]],
) -> Iterator[Event]:
    """Interleave per-type streams into one arrival-ordered wire stream.

    Yields events by ascending ``ts``, preserving each stream's internal
    order (stable merge, ties broken by the mapping's iteration order).
    This reproduces the batch harness's merged source order whenever no
    two *different* types share a timestamp; with cross-type ties the
    batch tie-break depends on the plan's scan registration order, so
    byte-for-byte server-vs-batch comparisons should offset their
    streams to keep cross-type timestamps unique (the test workloads
    do).
    """
    runs = [
        [((event.ts, order, index), event) for index, event in enumerate(events)]
        for order, events in enumerate(streams.values())
    ]
    for _key, event in heapq.merge(*runs, key=lambda pair: pair[0]):
        yield event

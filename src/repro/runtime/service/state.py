"""Durable service state: job manifests, progress records, ingestion WAL.

The checkpoint store (PR 4) already persists *operator* state per job —
what a restarted server cannot rebuild from it is everything around the
operators: which jobs existed (their original submit requests), how far
each had processed, and the arrival-ordered ingestion log whose replay
offsets the checkpoints point into. This module owns that layout, under
the service's ``--state-dir``::

    <state_dir>/
        ingest.wal             service-wide ingestion WAL (NDJSON)
        tracker.json           SourceTracker snapshot (written at drain)
        <job_id>/
            job.json           the original submit request (immutable)
            state.json         progress: lifecycle state, counters, tenants
            manifest.json ...  the job's checkpoint chain (PR 4 store)

**The WAL is service-wide, not per-job.** One admitted event can route
to several jobs; logging it per job would open a window where a kill −9
lands between two appends and the rebuilt dedup horizon silently drops
the producer's re-send for the job that lost it. Each WAL line therefore
records the producer's event line, verbatim, *and the exact routing set*::

    {"event": <the producer's JSON line>, "jobs": ["job-1", "job-3"]}

The line was already parsed as a JSON object, so embedding its text is a
valid record and replay decodes it to the same event. An event is
durable for all of its jobs or none of them; a re-send after restart is
deduplicated exactly when every routed job already has it. Replaying the
WAL through the normal routing order rebuilds every job's
arrival-ordered log byte-identically, so per-job (and per-shard)
checkpoint offsets stay valid across the restart.

**Group commit.** The records of one ingest read go down in one
``write`` and one ``flush``. Writes are not fsynced: the resume
guarantee targets process death (SIGKILL), where the page cache
survives. A kill in the middle of a write leaves a torn last record;
replay stops there, and nothing after it was acknowledged as durable.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
from pathlib import Path
from typing import IO, Any, Iterator, Sequence

log = logging.getLogger(__name__)

_MANIFEST = "job.json"
_PROGRESS = "state.json"
_WAL = "ingest.wal"
_TRACKER = "tracker.json"

_TMP_SERIAL = itertools.count()


class ServiceState:
    """Filesystem layout of one service instance's durable state."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._wal_handle: IO[str] | None = None
        self._wal_lock = threading.Lock()

    # -- job manifests -----------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def write_manifest(self, job_id: str, request: dict[str, Any]) -> None:
        """Persist the original submit request (written once, at submit)."""
        path = self.job_dir(job_id)
        path.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path / _MANIFEST, {"job_id": job_id, "request": request})

    def write_progress(self, job_id: str, progress: dict[str, Any]) -> None:
        """Persist the job's mutable progress record (per round/transition)."""
        path = self.job_dir(job_id)
        path.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path / _PROGRESS, progress)

    def load_jobs(self) -> list[dict[str, Any]]:
        """Every persisted job: ``{"job_id", "request", "progress"}``.

        Sorted by the numeric job-id suffix so resume re-registers jobs
        in their original submission order (WAL routing sets reference
        the ids, not the order, but deterministic iteration keeps the
        rebuilt manager byte-comparable).
        """
        out: list[dict[str, Any]] = []
        for child in self.root.iterdir():
            manifest = child / _MANIFEST
            if not child.is_dir() or not manifest.exists():
                continue
            doc = json.loads(manifest.read_text())
            progress_path = child / _PROGRESS
            doc["progress"] = (
                json.loads(progress_path.read_text()) if progress_path.exists() else {}
            )
            out.append(doc)
        return sorted(out, key=lambda doc: _job_order(doc["job_id"]))

    def max_job_number(self) -> int:
        """The largest ``job-<n>`` suffix on disk (0 when none)."""
        numbers = [_job_order(doc["job_id"]) for doc in self.load_jobs()]
        return max(numbers, default=0)

    # -- the ingestion WAL -------------------------------------------------

    @property
    def wal_path(self) -> Path:
        return self.root / _WAL

    def append_wal(self, records: Sequence[tuple[str, list[str]]]) -> None:
        """One durable append of ``(event line, routing set)`` records.

        Each line is one JSON object without a newline (an ingested
        producer line, stripped); it is embedded as is.
        """
        parts = [
            '{"event": ' + line + ', "jobs": ' + json.dumps(job_ids) + "}\n"
            for line, job_ids in records
        ]
        with self._wal_lock:
            if self._wal_handle is None:
                self._cut_torn_tail()
                self._wal_handle = self.wal_path.open(
                    "a", encoding="utf-8", newline="\n"
                )
            self._wal_handle.write("".join(parts))
            self._wal_handle.flush()

    def _cut_torn_tail(self) -> None:
        """Drop a torn last record before the first append: one written
        behind it would share its line and be lost to the next replay."""
        if not self.wal_path.exists():
            return
        with self.wal_path.open("rb+") as handle:
            end = keep = handle.seek(0, os.SEEK_END)
            while keep > 0:
                start = max(0, keep - (1 << 16))
                handle.seek(start)
                newline = handle.read(keep - start).rfind(b"\n")
                if newline >= 0:
                    keep = start + newline + 1
                    break
                keep = start
            if keep < end:
                log.debug("%s: cut a torn WAL tail of %d bytes", self.wal_path, end - keep)
                handle.truncate(keep)

    def replay_wal(self) -> Iterator[tuple[dict[str, Any], list[str]]]:
        """Yield ``(wire doc, routed job ids)`` in arrival order.

        A torn trailing record (the append a kill −9 interrupted) ends the
        replay — by construction nothing after it was acknowledged as
        durable. A record is torn when it does not end in ``\\n``, which is
        exactly what :meth:`_cut_torn_tail` cuts before the next append;
        a record that does not decode (bad JSON, or bad UTF-8) or is not
        an event record ends the replay too. Records end at ``\\n`` only:
        a verbatim producer line may hold a bare ``\\r`` as JSON whitespace.
        """
        if not self.wal_path.exists():
            return
        with self.wal_path.open("rb") as handle:
            for number, raw in enumerate(handle, start=1):
                if not raw.strip():
                    continue
                doc = None
                if raw.endswith(b"\n"):
                    try:
                        doc = json.loads(raw)
                    except ValueError:  # bad JSON or bad UTF-8
                        pass
                if not isinstance(doc, dict) or not isinstance(doc.get("event"), dict):
                    dropped = len(raw) + sum(len(rest) for rest in handle)
                    log.debug(
                        "%s: dropped a torn WAL tail at line %d, %d bytes",
                        self.wal_path, number, dropped,
                    )
                    break
                yield doc["event"], [str(j) for j in doc.get("jobs", [])]

    # -- tracker snapshot --------------------------------------------------

    def write_tracker(self, snapshot: dict[str, Any]) -> None:
        self._write_atomic(self.root / _TRACKER, snapshot)

    def load_tracker(self) -> dict[str, Any] | None:
        path = self.root / _TRACKER
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        with self._wal_lock:
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None

    @staticmethod
    def _write_atomic(path: Path, doc: dict[str, Any]) -> None:
        # Writers of one path can race (a cancel persisting progress while
        # the worker does): each writes its own temporary, the last
        # ``replace`` wins. One shared ``<name>.tmp`` let the second
        # ``replace`` find its file already renamed away.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.{next(_TMP_SERIAL)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _job_order(job_id: str) -> int:
    try:
        return int(str(job_id).rsplit("-", 1)[-1])
    except ValueError:
        return 0

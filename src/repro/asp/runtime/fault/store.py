"""Checkpoint persistence — where snapshots survive a crash.

A :class:`Checkpoint` is an opaque pickled blob tagged with the source
offset it was taken at; the store keeps the most recent ``retain`` of
them. The in-memory store models Flink's job-manager-held snapshots
(enough for the simulated crash/restart loop, which stays in one
process); the directory store persists to disk with a JSON manifest so a
checkpoint survives the *process* too, and so tests can inspect real
files. Beside them a store keeps one append-only *output journal*: what
the job's sinks retain is written there once and a checkpoint only counts
it (:mod:`repro.asp.runtime.fault.checkpoint`); retention never touches it.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import struct
import time
import uuid
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

try:  # POSIX advisory locks; Windows falls back to an exclusive-create spinlock
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: The logger of the serve path's lane decisions (no handler installed).
log = logging.getLogger(__name__)


class Checkpoint:
    """One completed snapshot of a job: payload bytes + replay offset."""

    __slots__ = ("checkpoint_id", "offset", "payload")

    def __init__(self, checkpoint_id: int, offset: int, payload: bytes):
        self.checkpoint_id = checkpoint_id
        self.offset = offset
        self.payload = payload

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:
        return (
            f"Checkpoint(id={self.checkpoint_id}, offset={self.offset}, "
            f"{self.size_bytes} B)"
        )


#: One journal record: (sink node id, index of its first item in that
#: sink's output, the items), stored as its pickle behind the pickle's length.
OutputRecord = tuple[int, int, list]
_RECORD_LENGTH = struct.Struct(">Q")


def _encode_record(record: OutputRecord) -> bytes:
    body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _RECORD_LENGTH.pack(len(body)) + body


def _whole_records(data: bytes, where: object) -> tuple[list[memoryview], int]:
    """The still pickled records of a journal image and the bytes they
    fill. A record cut short (the append a kill −9 interrupted) ends the
    journal like the WAL's torn line: no checkpoint counted anything after it."""
    bodies: list[memoryview] = []
    end = 0
    while end + _RECORD_LENGTH.size <= len(data):
        start = end + _RECORD_LENGTH.size
        (length,) = _RECORD_LENGTH.unpack_from(data, end)
        if start + length > len(data):
            break
        bodies.append(memoryview(data)[start : start + length])
        end = start + length
    if end < len(data):
        log.debug("%r: dropped a torn journal tail of %d bytes", where, len(data) - end)
    return bodies, end


@runtime_checkable
class CheckpointStore(Protocol):
    """Anything that can hold the recent checkpoints of one job and the
    journal of its sinks' output (appends return the bytes written,
    reads every whole record, oldest first)."""

    def save(self, checkpoint: Checkpoint) -> None: ...

    def latest(self) -> Checkpoint | None: ...

    def checkpoints(self) -> list[Checkpoint]: ...

    def clear(self) -> None: ...

    def scoped(self, label: str) -> "CheckpointStore": ...

    def append_output(self, records: Sequence[OutputRecord]) -> int: ...

    def read_output(self) -> list[OutputRecord]: ...

    def output_bytes(self) -> int: ...


class InMemoryCheckpointStore:
    """Checkpoints held in the driver process (the default)."""

    def __init__(self, retain: int = 3):
        if retain < 1:
            raise ValueError("must retain at least one checkpoint")
        self.retain = retain
        self._checkpoints: list[Checkpoint] = []
        #: The journal: encoded records, the directory store's bytes.
        self._output: list[bytes] = []

    def save(self, checkpoint: Checkpoint) -> None:
        self._checkpoints.append(checkpoint)
        del self._checkpoints[: -self.retain]

    def append_output(self, records: Sequence[OutputRecord]) -> int:
        encoded = [_encode_record(record) for record in records]
        self._output.extend(encoded)
        return sum(map(len, encoded))

    def read_output(self) -> list[OutputRecord]:
        return [pickle.loads(record[_RECORD_LENGTH.size :]) for record in self._output]

    def output_bytes(self) -> int:
        return sum(map(len, self._output))

    def latest(self) -> Checkpoint | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def checkpoints(self) -> list[Checkpoint]:
        return list(self._checkpoints)

    def clear(self) -> None:
        self._checkpoints.clear()
        self._output.clear()

    def scoped(self, label: str) -> "InMemoryCheckpointStore":
        """An independent namespace (one per shard of a sharded run)."""
        del label  # in-memory stores need no shared key space
        return InMemoryCheckpointStore(retain=self.retain)


class _ManifestLock:
    """Advisory exclusive lock serializing manifest read-modify-write.

    Uses ``flock`` where available (POSIX); elsewhere an exclusive-create
    spinlock on the same lock file. Lock scope is one store directory, so
    concurrent writers (two jobs of a ``repro serve`` instance, or a
    coordinator racing a reader) never interleave a read-modify-write.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fd: int | None = None

    def __enter__(self) -> "_ManifestLock":
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        else:  # pragma: no cover - non-POSIX platforms
            while True:
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                    )
                    break
                except FileExistsError:
                    time.sleep(0.001)
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._fd is not None
        if fcntl is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
        else:  # pragma: no cover - non-POSIX platforms
            os.close(self._fd)
            self.path.unlink(missing_ok=True)
        self._fd = None


class DirectoryCheckpointStore:
    """Checkpoints as files under a directory, with a JSON manifest.

    Layout: ``<dir>/chk-<writer>-<id>.pickle`` plus ``<dir>/manifest.json``
    listing ``[{"checkpoint_id", "offset", "file"}]`` newest-last, and the
    journal ``<dir>/output.journal``. Payload filenames carry a per-store
    writer token, and every manifest read-modify-write and journal append
    or read runs under an exclusive directory lock (``manifest.lock``), so
    concurrent stores sharing one directory can never clobber each other's
    files, lose manifest entries mid-race or interleave two appends.

    Retention is still per *manifest*: stores that must not evict each
    other's checkpoints belong in separate directories — use
    :meth:`scoped` to give each job (or shard) its own subdirectory, as
    ``repro serve`` and the sharded backend do.
    """

    _MANIFEST = "manifest.json"
    _LOCK = "manifest.lock"
    _OUTPUT = "output.journal"

    def __init__(self, path: str | Path, retain: int = 3):
        if retain < 1:
            raise ValueError("must retain at least one checkpoint")
        self.path = Path(path)
        self.retain = retain
        self.path.mkdir(parents=True, exist_ok=True)
        # Distinguishes this writer's payload files from a concurrent
        # store's: two coordinators both counting checkpoints from 0 in
        # one directory must not overwrite each other's ``chk-0``.
        self._writer = uuid.uuid4().hex[:8]
        #: Where this store's last journal append ended. A file of any
        #: other length was appended to by someone else or ends in a torn
        #: record: the next append measures its whole records again.
        self._output_end = -1

    def __repr__(self) -> str:
        return f"DirectoryCheckpointStore({str(self.path)!r})"

    def _manifest_path(self) -> Path:
        return self.path / self._MANIFEST

    def _lock(self) -> _ManifestLock:
        return _ManifestLock(self.path / self._LOCK)

    def _read_manifest(self) -> list[dict]:
        manifest = self._manifest_path()
        if not manifest.exists():
            return []
        return json.loads(manifest.read_text())

    def _write_manifest(self, entries: list[dict]) -> None:
        tmp = self._manifest_path().with_suffix(f".{self._writer}.tmp")
        tmp.write_text(json.dumps(entries, indent=2))
        tmp.replace(self._manifest_path())

    def save(self, checkpoint: Checkpoint) -> None:
        name = f"chk-{self._writer}-{checkpoint.checkpoint_id}.pickle"
        (self.path / name).write_bytes(checkpoint.payload)
        with self._lock():
            entries = self._read_manifest()
            entries.append(
                {
                    "checkpoint_id": checkpoint.checkpoint_id,
                    "offset": checkpoint.offset,
                    "file": name,
                }
            )
            for stale in entries[: -self.retain]:
                (self.path / stale["file"]).unlink(missing_ok=True)
            self._write_manifest(entries[-self.retain :])

    def latest(self) -> Checkpoint | None:
        with self._lock():
            entries = self._read_manifest()
            if not entries:
                return None
            entry = entries[-1]
            payload = (self.path / entry["file"]).read_bytes()
        return Checkpoint(entry["checkpoint_id"], entry["offset"], payload)

    def checkpoints(self) -> list[Checkpoint]:
        out = []
        with self._lock():
            for entry in self._read_manifest():
                payload = (self.path / entry["file"]).read_bytes()
                out.append(
                    Checkpoint(entry["checkpoint_id"], entry["offset"], payload)
                )
        return out

    def append_output(self, records: Sequence[OutputRecord]) -> int:
        blob = b"".join(_encode_record(record) for record in records)
        with self._lock():
            with open(self.path / self._OUTPUT, "a+b") as journal:
                if journal.tell() != self._output_end:
                    journal.seek(0)
                    self._output_end = _whole_records(journal.read(), self)[1]
                    journal.truncate(self._output_end)
                journal.write(blob)
                self._output_end += len(blob)
        return len(blob)

    def read_output(self) -> list[OutputRecord]:
        journal = self.path / self._OUTPUT
        with self._lock():
            data = journal.read_bytes() if journal.exists() else b""
        return [pickle.loads(body) for body in _whole_records(data, self)[0]]

    def output_bytes(self) -> int:
        journal = self.path / self._OUTPUT
        return journal.stat().st_size if journal.exists() else 0

    def clear(self) -> None:
        with self._lock():
            for entry in self._read_manifest():
                (self.path / entry["file"]).unlink(missing_ok=True)
            self._manifest_path().unlink(missing_ok=True)
            (self.path / self._OUTPUT).unlink(missing_ok=True)

    def scoped(self, label: str) -> "DirectoryCheckpointStore":
        return DirectoryCheckpointStore(self.path / label, retain=self.retain)


def pickle_payload(data: dict) -> bytes:
    """Serialize a captured job state (isolation copy + size metric)."""
    return pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)


def unpickle_payload(payload: bytes) -> dict:
    out = pickle.loads(payload)
    if not isinstance(out, dict):
        raise TypeError(f"corrupt checkpoint payload: {type(out).__name__}")
    return out

"""The checkpoint coordinator — when and how snapshots are taken.

The serial run loop is synchronous depth-first push: between two source
events every channel is fully drained and every operator is quiescent.
A checkpoint taken at that point is therefore a *consistent cut* of the
whole dataflow — the simulation analog of an aligned barrier having
passed every operator (Carbone et al., asynchronous barrier
snapshotting). The coordinator triggers on a source-event cadence,
captures every operator's :meth:`~repro.asp.operators.base.Operator
.snapshot_state` plus the watermark generator and the source offset, and
persists the pickled blob to a :class:`~repro.asp.runtime.fault.store
.CheckpointStore`.

Overhead is measured, not guessed: count, total bytes and a duration
histogram (p95) accumulate across recovery attempts and surface in
``RunResult.metrics["checkpoints"]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.asp.runtime.clock import RuntimeClock
from repro.asp.runtime.fault.store import (
    Checkpoint,
    CheckpointStore,
    pickle_payload,
    unpickle_payload,
)
from repro.asp.runtime.observability import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.runtime.backends.serial import SerialJob


def capture_job_state(job: "SerialJob") -> dict[str, Any]:
    """Everything a restarted job needs: offset, watermark, operators."""
    return {
        "offset": job.events_in,
        "items_out": job.items_out,
        "watermark": job.watermarks.snapshot(),
        "operators": {
            node.node_id: node.operator.snapshot_state()
            for node in job.flow.operator_nodes()
        },
    }


def restore_job_state(job: "SerialJob", data: dict[str, Any]) -> None:
    job.events_in = data["offset"]
    job.items_out = data["items_out"]
    job.watermarks.restore(data["watermark"])
    for node in job.flow.operator_nodes():
        node.operator.restore_state(data["operators"][node.node_id])


class CheckpointCoordinator:
    """Takes checkpoints on an event cadence and tracks their cost.

    One coordinator lives across all recovery attempts of a run, so the
    reported overhead covers the whole fault-tolerant execution.
    """

    def __init__(
        self,
        store: CheckpointStore,
        interval: int | None,
        clock: RuntimeClock | None = None,
    ):
        if interval is not None and interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.store = store
        self.interval = interval
        self.clock = clock or RuntimeClock()
        self.count = 0
        self.bytes_total = 0
        self.duration = Histogram()
        self._next_id = 0
        #: Offset of the newest checkpoint this coordinator saved.
        self.last_offset: int | None = None

    def due(self, events_in: int) -> bool:
        return (
            self.interval is not None
            and events_in > 0
            and events_in % self.interval == 0
        )

    def take(self, job: "SerialJob") -> Checkpoint:
        started = self.clock.now()
        payload = pickle_payload(capture_job_state(job))
        return self.save_payload(payload, job.events_in, started)

    def save_payload(
        self, payload: bytes, offset: int, started: float | None = None
    ) -> Checkpoint:
        """Persist a captured state blob; ids, retention and the overhead
        metrics live here. Process-mode shards capture their state in a
        worker process and ship the payload back to the lane's
        coordinator."""
        if started is None:
            started = self.clock.now()
        checkpoint = Checkpoint(self._next_id, offset, payload)
        self.store.save(checkpoint)
        self._next_id += 1
        self.last_offset = offset
        self.count += 1
        self.bytes_total += checkpoint.size_bytes
        self.duration.observe(self.clock.now() - started)
        return checkpoint

    def restore_into(self, job: "SerialJob", checkpoint: Checkpoint) -> None:
        restore_job_state(job, unpickle_payload(checkpoint.payload))

    def metrics(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "bytes_total": self.bytes_total,
            "interval": self.interval,
            "duration": self.duration.to_dict(),
            "duration_p95_s": self.duration.percentile(95.0),
        }

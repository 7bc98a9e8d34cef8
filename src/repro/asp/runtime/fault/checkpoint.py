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

What a sink retains is not in that blob — it grows with the stream, and
only at its end. A cut first appends to the store's output journal what
each sink's list gained since the previous cut, then saves a payload
that counts the lists; a restore reads the journal back up to those
counts. A record past them was left by an attempt that died between its
append and its save, and the next cut's record replaces it (DESIGN §9).

Overhead is measured, not guessed: count, total bytes and a duration
histogram (p95) accumulate across recovery attempts and surface in
``RunResult.metrics["checkpoints"]``.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Any

from repro.asp.graph import Dataflow
from repro.asp.operators.sink import Sink
from repro.asp.runtime.clock import RuntimeClock
from repro.asp.runtime.fault.store import (
    Checkpoint,
    CheckpointStore,
    pickle_payload,
    unpickle_payload,
)
from repro.asp.runtime.observability import Histogram
from repro.errors import ExecutionError

log = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.runtime.backends.serial import SerialJob


def sink_outputs(flow: Dataflow) -> dict[int, list]:
    """By node id, the list each retaining sink of ``flow`` holds."""
    return {
        node.node_id: getattr(node.operator, node.operator.retains)
        for node in flow.sink_nodes()
        if isinstance(node.operator, Sink) and node.operator.retains
    }


def capture_job_state(job: "SerialJob") -> dict[str, Any]:
    """Everything a restarted job needs: offset, watermark, operators and
    their runtime counts, and how much of each sink's output the journal
    must give back."""
    return {
        "offset": job.events_in,
        "items_out": job.items_out,
        "watermark": job.watermarks.snapshot(),
        "operators": {
            node.node_id: node.operator.snapshot_state()
            for node in job.flow.operator_nodes()
        },
        "counts": {
            node_id: metrics.snapshot()
            for node_id, metrics in job.instrumentation.op_metrics.items()
        },
        "journalled": {n: len(kept) for n, kept in sink_outputs(job.flow).items()},
    }


def restore_job_state(
    job: "SerialJob", data: dict[str, Any], outputs: dict[int, list] | None = None
) -> None:
    """``outputs``: the journalled lists of the sinks ``data`` only counts
    (a payload from before the journal carries them in its sink snapshots).
    A payload without runtime counts leaves them at zero."""
    job.events_in = data["offset"]
    job.items_out = data["items_out"]
    job.watermarks.restore(data["watermark"])
    op_metrics = job.instrumentation.op_metrics
    for node_id, counts in data.get("counts", {}).items():
        op_metrics[node_id].restore(counts)
    for node in job.flow.operator_nodes():
        snapshot = data["operators"][node.node_id]
        if outputs and node.node_id in outputs:
            snapshot = {**snapshot, node.operator.retains: outputs[node.node_id]}
        node.operator.restore_state(snapshot)


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
        #: Per sink node, how many items of its output the journal holds
        #: as of the cut the lane stands at.
        self._journalled: dict[int, int] = {}

    def due(self, events_in: int) -> bool:
        return (
            self.interval is not None
            and events_in > 0
            and events_in % self.interval == 0
        )

    def take(self, job: "SerialJob") -> Checkpoint:
        """One cut: journal what each sink's output gained, then persist the
        job's state blob."""
        started = self.clock.now()
        payload = pickle_payload(capture_job_state(job))
        outputs = sink_outputs(job.flow)
        records = [
            (node_id, held, items[held:])
            for node_id, items in outputs.items()
            if len(items) > (held := self._journalled.get(node_id, 0))
        ]
        written = self.store.append_output(records) if records else 0
        self._journalled = {node_id: len(items) for node_id, items in outputs.items()}
        checkpoint = Checkpoint(self._next_id, job.events_in, payload)
        self.store.save(checkpoint)
        self._next_id += 1
        self.last_offset = job.events_in
        self.count += 1
        self.bytes_total += checkpoint.size_bytes + written
        self.duration.observe(self.clock.now() - started)
        return checkpoint

    def load(self, checkpoint: Checkpoint) -> tuple[dict[str, Any], dict[int, list]]:
        """A checkpoint's state and the sink output it counts, read back from
        the journal (``restore_job_state``'s arguments); the lane now stands there."""
        started = self.clock.now()
        data = unpickle_payload(checkpoint.payload)
        counts = data.get("journalled")
        if counts is None:
            log.debug("lane %r: adopted whole-sink %r", self.store, checkpoint)
            counts = {}
        held: dict[int, list] = {node_id: [] for node_id in counts}
        for node_id, start, items in self.store.read_output() if counts else ():
            if node_id in held and start <= len(held[node_id]):
                # A record replaces an earlier one from its start; one
                # that starts past the end leaves the journal short.
                held[node_id][start:] = items
        for node_id, count in counts.items():
            if len(held[node_id]) < count:
                raise ExecutionError(
                    f"lane {self.store!r}: the output journal holds "
                    f"{len(held[node_id])} items of sink node {node_id} "
                    f"where {checkpoint!r} needs {count}"
                )
            del held[node_id][count:]
        self._journalled = counts
        log.debug(
            "lane %r: restored %r, %d items read back in %.1f ms", self.store,
            checkpoint, sum(counts.values()), (self.clock.now() - started) * 1e3,
        )
        return data, held

    def metrics(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "bytes_total": self.bytes_total,
            "interval": self.interval,
            "duration": self.duration.to_dict(),
            "duration_p95_s": self.duration.percentile(95.0),
        }

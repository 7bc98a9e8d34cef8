"""Sharded incremental rounds: the O3 data plane of ``repro serve``.

A job whose every plan carries a partition attribute and whose merged
dataflow passes the RA40x partition-safety proof runs its rounds here
instead of on one serial worker. Each round:

1. re-extracts per-shard subgraphs from the job's flow
   (:func:`repro.asp.graph.extract_shards` hash-partitions the *current*
   ingestion log with the stable ``partition_for`` split, so a shard's
   substream only ever grows by appending — replay offsets from earlier
   rounds stay valid);
2. runs every shard as an independent :class:`SerialJob` that restores
   the shard's latest checkpoint, replays its substream from that
   offset, and withholds the terminal watermark until the drain round —
   exactly the serial round protocol, per shard;
3. takes a round-boundary checkpoint per shard (checkpoint-per-shard in
   the job's scoped store), rebuilds the job's sinks from the shard sink
   payloads, and merges the shard metric trees into one round tree.

Dispatch modes mirror :class:`~repro.asp.runtime.backends.sharded
.ShardedBackend`: ``process`` ships cloudpickled (flow, settings,
checkpoint payload) blobs to a shared spawn-context worker pool and gets
(result, sinks, new checkpoint payload) back; ``inline`` runs shards
sequentially in the worker thread; ``auto`` picks ``process`` on
multi-core machines with cloudpickle available. Jobs with an active
fault plan always run inline — injected crashes must fire exactly once
across restarts, which needs the injector to live in this process. Any
pool failure (fork/spawn rights, a broken worker) degrades the round to
inline; correctness never depends on the pool.

Equivalence argument: sharded-union ≡ serial holds per round because the
hash split is stable and every stateful operator is key-local (the RA40x
proof); incremental rounds ≡ one-shot holds per shard because each shard
runs the PR 4 checkpoint/replay protocol on its own substream. The
composition is byte-identity of the drained job against a one-shot batch
run, which the service tests and the ``serve-restart`` CI job enforce.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any

from repro.asp.graph import Dataflow, extract_shards
from repro.asp.operators.keyby import key_by_attribute
from repro.asp.operators.sink import CollectSink
from repro.asp.runtime.backends.base import ExecutionSettings
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.checkpoint import capture_job_state, restore_job_state
from repro.asp.runtime.fault.store import pickle_payload, unpickle_payload
from repro.asp.runtime.result import RunResult, merge_shard_results
from repro.errors import InjectedFaultError

try:  # cloudpickle ships lambdas; the inline mode works without it.
    import cloudpickle
except ImportError:  # pragma: no cover - present in the reference env
    cloudpickle = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service.jobs import Job

#: Shard sink payload: CollectSink node id -> cumulative collected items.
SinkItems = dict[int, list[Any]]

SHARD_MODES = ("auto", "process", "inline")

_pool: ProcessPoolExecutor | None = None
_pool_lock = threading.Lock()


def resolve_shard_mode(mode: str, shards: int) -> str:
    """Collapse ``auto`` to a concrete dispatch mode for this machine."""
    if mode != "auto":
        return mode
    cpus = os.cpu_count() or 1
    if cpus > 1 and shards > 1 and cloudpickle is not None:
        return "process"
    return "inline"


def _shared_pool() -> ProcessPoolExecutor:
    """The long-lived spawn-context worker pool, created on first use.

    Spawn (not fork): the serve process runs an asyncio loop plus
    executor threads, and forking under held locks can deadlock a child.
    The pool persists across rounds and jobs, so the spawn cost is paid
    once per server, not once per round.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            import multiprocessing

            workers = min(4, os.cpu_count() or 1)
            _pool = ProcessPoolExecutor(
                max_workers=max(1, workers),
                mp_context=multiprocessing.get_context("spawn"),
            )
        return _pool


def shutdown_pool() -> None:
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None


def _round_shard_entry(blob: bytes) -> bytes:
    """Worker-process entry: one shard's round, checkpoint in/out.

    The parent owns the checkpoint store; the worker only transforms a
    restored state payload into a new one (plus the run result and the
    cumulative sink contents). Cadence checkpoints inside the round are
    skipped in process mode — the round boundary is the durable cut.
    """
    flow, settings, payload, offset, terminal = cloudpickle.loads(blob)
    job = SerialJob(flow, settings)
    if payload is not None:
        restore_job_state(job, unpickle_payload(payload))
        job.start_offset = offset
    result = job.run(terminal_watermark=terminal)
    state = pickle_payload(capture_job_state(job))
    sinks = _sink_items(flow)
    return cloudpickle.dumps((result, sinks, state, job.events_in))


def _sink_items(flow: Dataflow) -> SinkItems:
    return {
        node.node_id: list(node.operator.items)
        for node in flow.sink_nodes()
        if isinstance(node.operator, CollectSink)
    }


def run_sharded_round(job: "Job", terminal: bool) -> RunResult | None:
    """One incremental round across all of the job's shards.

    Returns the merged round result, or ``None`` when a shard exhausted
    the job's restart budget (the job is already marked failed).
    Caller holds the job's ``run_lock``.
    """
    job_flow = job.compiled.env.flow
    shards = job.config.job_shards
    shard_flows = extract_shards(
        job_flow, shards, key_by_attribute(job.key_attribute or "id")
    )
    started = time.perf_counter()
    mode = resolve_shard_mode(job.config.shard_mode, shards)
    if mode == "process" and (job.fault_active or cloudpickle is None):
        mode = "inline"
    outcomes: list[tuple[RunResult, SinkItems]] | None = None
    if mode == "process":
        try:
            outcomes = _round_in_pool(job, shard_flows, terminal)
        except (OSError, PermissionError, BrokenProcessPool):
            # Containers without spawn rights or a poisoned pool: the
            # round still happens, sequentially, against the same
            # checkpoints.
            shutdown_pool()
            outcomes = None
    if outcomes is None:
        mode = "inline"
        outcomes = []
        for index, flow in enumerate(shard_flows):
            result = run_round_attempts(job, flow, terminal, shard=index)
            if result is None:
                return None
            outcomes.append((result, _sink_items(flow)))
    wall = time.perf_counter() - started
    _publish_sinks(job_flow, [items for _result, items in outcomes])
    return merge_shard_results(
        job_flow.name,
        [result for result, _items in outcomes],
        wall,
        shards=shards,
        mode=mode,
        key_attribute=job.key_attribute or "id",
    )


def run_round_attempts(
    job: "Job", flow: Dataflow, terminal: bool, shard: int | None = None
) -> RunResult | None:
    """One round of ``flow`` under the checkpoint/restart protocol.

    ``flow`` is the job's whole dataflow (serial backend) or, with
    ``shard``, that shard's subgraph (the sharded backend's inline
    dispatch), checkpointed in the shard's own store. Returns ``None``
    when the job's restart budget is exhausted (the job is already
    marked failed). Caller holds the job's ``run_lock``.
    """
    if shard is None:
        store, coordinator, injector = job.store, job.coordinator, job.injector
    else:
        store = job.shard_stores[shard]
        coordinator = job.shard_coordinators[shard]
        injector = job.shard_injectors[shard]
    while True:
        serial_job = SerialJob(
            flow, job.settings, injector=injector, coordinator=coordinator
        )
        latest = store.latest()
        if latest is None:
            # Checkpoint 0: pristine pre-stream state, so even a crash
            # in the first round can recover.
            coordinator.take(serial_job)
        else:
            coordinator.restore_into(serial_job, latest)
            serial_job.start_offset = latest.offset
        try:
            result = serial_job.run(terminal_watermark=terminal)
            break
        except InjectedFaultError as exc:
            latest = store.latest()
            if not job.record_restart(
                exc, latest.offset if latest else 0, shard=shard
            ):
                return None
    # Round-boundary cut: the next round resumes exactly here.
    coordinator.take(serial_job)
    return result


def _round_in_pool(
    job: "Job", shard_flows: list[Dataflow], terminal: bool
) -> list[tuple[RunResult, SinkItems]]:
    """All shards' rounds on the worker pool; checkpoints stay parental."""
    shipped: ExecutionSettings = job.settings.without_hooks()
    blobs = []
    for index, flow in enumerate(shard_flows):
        latest = job.shard_stores[index].latest()
        blobs.append(
            cloudpickle.dumps(
                (
                    flow,
                    shipped,
                    latest.payload if latest is not None else None,
                    latest.offset if latest is not None else 0,
                    terminal,
                )
            )
        )
    pool = _shared_pool()
    futures = [pool.submit(_round_shard_entry, blob) for blob in blobs]
    outcomes: list[tuple[RunResult, SinkItems]] = []
    for index, future in enumerate(futures):
        result, sinks, state, events_in = cloudpickle.loads(future.result())
        job.shard_coordinators[index].save_payload(state, events_in)
        outcomes.append((result, sinks))
    return outcomes


def _publish_sinks(flow: Dataflow, shard_items: list[SinkItems]) -> None:
    """Rebuild the job's caller-visible sinks from the shard payloads.

    Shard sink state is cumulative (restored with every checkpoint), so
    each round *replaces* the job's sink contents with the union — in
    deterministic event-time order, ties broken by shard index.
    """
    merged: dict[int, list[Any]] = {}
    for items in shard_items:
        for node_id, collected in items.items():
            merged.setdefault(node_id, []).extend(collected)
    for node_id, collected in merged.items():
        sink = flow.nodes[node_id].operator
        if not isinstance(sink, CollectSink):  # pragma: no cover
            continue
        sink.items[:] = sorted(collected, key=lambda item: item.ts)
        sink.count = len(sink.items)

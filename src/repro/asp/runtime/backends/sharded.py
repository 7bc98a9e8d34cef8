"""Sharded backend: key-partitioned parallel execution (O3, physical).

The paper's central claim is that decomposing a CEP pattern into ASP
operators unlocks key partitioning; this backend executes it. A keyed
plan — one whose stateful operators all declare
:attr:`~repro.asp.operators.base.Operator.key_parallel_safe` — is split
into per-shard subgraphs (:func:`repro.asp.graph.extract_shards`), each
shard runs one round of the checkpoint/restart protocol
(:mod:`repro.asp.runtime.fault.recovery`) on its own lane, and the
shard-local :class:`RunResult`s are merged into one.

The hash split is stable, so re-extracting the shards of a grown source
only ever appends to a shard's substream and replay offsets of earlier
rounds stay valid: ``execute`` is one terminal round on fresh lanes,
``repro serve`` runs a job's rounds through the same
:meth:`ShardedBackend.run_round` on the job's lanes.

Dispatch modes
--------------

``process``
    Shards run concurrently on one long-lived spawn-context worker pool.
    Subgraphs contain lambdas (predicates, theta conditions), so they are
    shipped with ``cloudpickle``. The parent owns every lane: a worker
    maps (flow, state and journalled sink output in) to (result, sink
    payloads, operator tree, state payload out) and never sees a store:
    the parent commits the cut, in the one on-disk format, and the lane
    keeps the tree for reads. Cadence checkpoints are
    skipped — the round boundary is the durable cut — and a run with a fault
    plan dispatches inline, because an injected crash must fire exactly
    once across restarts and so needs its injector in this process.
``inline``
    Shards run sequentially in-process. Each shard is still individually
    measured, so the merged result's makespan (slowest shard) is a
    measured quantity — the same accounting a multi-core run produces,
    without the interpreter/IPC overhead. Also the fallback when
    ``cloudpickle`` is unavailable or the pool fails (no spawn rights, a
    broken worker); correctness never depends on the pool.
``auto`` (default)
    ``process`` when the machine has more than one CPU, else ``inline``.

Shard sink contents are cumulative (every cut counts them), so each
round *replaces* the caller's sink contents with the union over shards:
``TranslatedQuery.matches()``, harness code and the serve read endpoints
observe a sharded run exactly like a serial one.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time as _time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.asp.graph import Dataflow, extract_shards
from repro.asp.operators.keyby import key_by_attribute
from repro.asp.operators.sink import CollectSink, Sink
from repro.asp.runtime.backends.base import ExecutionSettings
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.checkpoint import capture_job_state, restore_job_state, sink_outputs
from repro.asp.runtime.fault.recovery import (
    CrashHandler,
    Lane,
    execute_round,
    run_lane,
)
from repro.asp.runtime.fault.store import pickle_payload
from repro.asp.runtime.result import RunResult, merge_shard_results
from repro.errors import ExecutionError, ShardabilityError

log = logging.getLogger(__name__)

try:  # cloudpickle ships lambdas; the inline mode works without it.
    import cloudpickle
except ImportError:  # pragma: no cover - present in the reference env
    cloudpickle = None

SHARD_MODES = ("auto", "process", "inline")

#: Per sink node id: (count, the list the sink retains or None).
SinkPayloads = dict[int, tuple[int, list | None]]

_pool: ProcessPoolExecutor | None = None
_pool_lock = threading.Lock()


def _shared_pool() -> ProcessPoolExecutor:
    """The long-lived worker pool, created on first use.

    Spawn (not fork): ``repro serve`` runs an asyncio loop plus executor
    threads, and forking under held locks can deadlock a child. The pool
    persists across rounds, jobs and ``execute`` calls, so the spawn cost
    is paid once per process.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ProcessPoolExecutor(
                max_workers=min(4, os.cpu_count() or 1),
                mp_context=multiprocessing.get_context("spawn"),
            )
        return _pool


def shutdown_pool() -> None:
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None


def _sink_payloads(flow: Dataflow) -> SinkPayloads:
    retained = sink_outputs(flow)
    return {
        node.node_id: (node.operator.count, retained.get(node.node_id))
        for node in flow.sink_nodes()
        if isinstance(node.operator, Sink)
    }


def _shard_entry(blob: bytes) -> bytes:
    """Worker-process entry: one shard's round, state in and payload out."""
    flow, settings, state, terminal, cut = cloudpickle.loads(blob)
    job = SerialJob(flow, settings)
    if state is not None:
        restore_job_state(job, *state)
    result = job.run(terminal_watermark=terminal)
    tree = result.metrics.get("operators") or job.operator_tree()
    state = pickle_payload(capture_job_state(job)) if cut else None
    return cloudpickle.dumps((result, _sink_payloads(flow), tree, state, job.events_in))


def _fold_sinks(flow: Dataflow, shard_payloads: Sequence[SinkPayloads]) -> None:
    """Replace the caller's sink contents with the union over shards."""
    for node in flow.sink_nodes():
        sink = node.operator
        parts = [p[node.node_id] for p in shard_payloads if node.node_id in p]
        if not parts or not isinstance(sink, Sink):  # pragma: no cover
            continue
        sink.count = sum(count for count, _retained in parts)
        if sink.retains:
            merged = [x for _count, retained in parts for x in retained or ()]
            if isinstance(sink, CollectSink):
                # Shard order is arbitrary; restore a deterministic global
                # event-time order (ties broken by shard index).
                merged.sort(key=lambda item: item.ts)
            # A new list, like a restore: a list object only grows at its end.
            setattr(sink, sink.retains, merged)


class ShardedBackend:
    """Execute a keyed dataflow as ``shards`` parallel serial jobs."""

    name = "sharded"

    def __init__(self, shards: int = 4, key_attribute: str = "id", mode: str = "auto"):
        if shards < 1:
            raise ExecutionError("sharded backend needs at least one shard")
        if mode not in SHARD_MODES:
            raise ExecutionError(f"unknown sharded execution mode '{mode}'")
        self.shards = shards
        self.key_attribute = key_attribute
        self.mode = mode

    # -- plan admission ----------------------------------------------------

    def check_shardable(self, flow: Dataflow) -> None:
        """A plan may shard only if no operator mixes keys in its state.

        Delegates to the static analyzer's partition-safety pass and
        raises a structured :class:`ShardabilityError` carrying the RA401
        diagnostics, so callers can inspect *which* operators block O3
        instead of parsing the message.
        """
        from repro.analysis.partition import shardability_diagnostics

        diagnostics = shardability_diagnostics(flow)
        if diagnostics:
            raise ShardabilityError(
                diagnostics[0].message, diagnostics=tuple(diagnostics)
            )

    # -- execution ---------------------------------------------------------

    def execute(self, flow: Dataflow, settings: ExecutionSettings) -> RunResult:
        flow.validate()
        self.check_shardable(flow)
        return execute_round(self, flow, settings)

    def run_round(
        self,
        flow: Dataflow,
        settings: ExecutionSettings,
        lanes: Sequence[Lane] | None,
        on_crash: CrashHandler,
        *,
        terminal: bool = True,
        cut: bool = False,
    ) -> RunResult:
        """One round of every shard of ``flow``, each on its own lane."""
        shard_flows = extract_shards(
            flow, self.shards, key_by_attribute(self.key_attribute)
        )
        shard_lanes: Sequence[Lane | None] = lanes or [None] * self.shards
        started = _time.perf_counter()
        mode = self.mode
        if mode == "auto":
            cpus = os.cpu_count() or 1
            mode = "process" if cpus > 1 and self.shards > 1 else "inline"
        if cloudpickle is None or any(
            lane is not None and lane.injector.plan.faults for lane in shard_lanes
        ):
            mode = "inline"
        outcomes: list[tuple[RunResult, SinkPayloads]] | None = None
        if mode == "process":
            try:
                outcomes = self._run_in_pool(
                    shard_flows, settings, shard_lanes, terminal, cut
                )
            except (OSError, BrokenProcessPool) as exc:
                # No fork/spawn rights or a poisoned pool: the round still
                # happens, sequentially, against the same lanes.
                log.debug("%s: process round fell back to inline: %r", flow.name, exc)
                shutdown_pool()
        if outcomes is None:
            mode = "inline"
            outcomes = []
            for shard_flow, lane in zip(shard_flows, shard_lanes):
                result = run_lane(
                    shard_flow, settings, lane, on_crash, terminal=terminal, cut=cut
                )
                outcomes.append((result, _sink_payloads(shard_flow)))
        wall = _time.perf_counter() - started
        _fold_sinks(flow, [payloads for _result, payloads in outcomes])
        return merge_shard_results(
            flow.name,
            [result for result, _payloads in outcomes],
            wall,
            shards=self.shards,
            mode=mode,
            key_attribute=self.key_attribute,
        )

    @staticmethod
    def _run_in_pool(
        shard_flows: list[Dataflow],
        settings: ExecutionSettings,
        lanes: Sequence[Lane | None],
        terminal: bool,
        cut: bool,
    ) -> list[tuple[RunResult, SinkPayloads]]:
        blobs = []
        for flow, lane in zip(shard_flows, lanes):
            latest = lane.store.latest() if lane is not None else None
            state = lane.coordinator.load(latest) if latest is not None else None
            blobs.append(cloudpickle.dumps((flow, settings, state, terminal, cut)))
        pool = _shared_pool()
        futures = [pool.submit(_shard_entry, blob) for blob in blobs]
        outcomes: list[tuple[RunResult, SinkPayloads]] = []
        for lane, future in zip(lanes, futures):
            result, payloads, tree, state, events_in = cloudpickle.loads(future.result())
            if lane is not None:
                # The worker's job ended with the round; its tree answers reads.
                lane.job, lane.operators = None, tree
                if state is not None:
                    retained = {n: kept for n, (_c, kept) in payloads.items() if kept is not None}
                    lane.coordinator.commit(retained, state, events_in)
            outcomes.append((result, payloads))
        return outcomes

"""Sharded backend: key-partitioned parallel execution (O3, physical).

The paper's central claim is that decomposing a CEP pattern into ASP
operators unlocks key partitioning; this backend executes it. A keyed
plan — one whose stateful operators all declare
:attr:`~repro.asp.operators.base.Operator.key_parallel_safe` — is split
into per-shard subgraphs (:func:`repro.asp.graph.extract_shards`), each
shard runs one round of the checkpoint/restart protocol
(:mod:`repro.asp.runtime.fault.recovery`) on its own lane, and the
shard-local :class:`RunResult`s are merged into one.

A job's split lives as long as its lanes: the first round builds the
shard flows, every later round on the same lanes only routes the events
the parent's sources gained since into the shard logs, and each shard
lane continues its live job exactly as a serial lane does
(:func:`~repro.asp.runtime.fault.recovery.run_lane`). ``execute`` is one
terminal round on fresh lanes, so it splits once per call; ``repro
serve`` runs a job's rounds through the same :meth:`ShardedBackend
.run_round` on the job's lanes, so it splits once per process.

Shards run sequentially in-process. Each shard is individually measured,
so the merged result's makespan (slowest shard) is a measured quantity —
the same accounting a multi-core run produces, without its interpreter
and IPC overhead.

Shard sink contents are cumulative, so each round *replaces* the
caller's sink contents with the union over shards:
``TranslatedQuery.matches()``, harness code and the serve read endpoints
observe a sharded run exactly like a serial one.
"""

from __future__ import annotations

import time as _time
from typing import Sequence, cast

from repro.asp.graph import Dataflow, extract_shards
from repro.asp.operators.keyby import key_by_attribute
from repro.asp.operators.sink import CollectSink, Sink
from repro.asp.runtime.backends.base import ExecutionSettings
from repro.asp.runtime.fault.recovery import (
    CrashHandler,
    Lane,
    execute_round,
    run_lane,
)
from repro.asp.runtime.result import RunResult, merge_shard_results
from repro.errors import ExecutionError, ShardabilityError


def _empty_sinks(flow: Dataflow) -> None:
    """Empty ``flow``'s sinks, which may hold an earlier run's fold, so the
    shard flows cloned from it start empty."""
    for node in flow.sink_nodes():
        sink = node.operator
        if isinstance(sink, Sink):
            sink.count = 0
            if sink.retains:
                setattr(sink, sink.retains, [])


def _fold_sinks(flow: Dataflow, shard_flows: Sequence[Dataflow]) -> None:
    """Replace the caller's sink contents with the union over shards."""
    for node in flow.sink_nodes():
        sink = node.operator
        if not isinstance(sink, Sink):  # pragma: no cover
            continue
        # Shard flows are clones: the same node id holds the same kind of sink.
        parts = [cast(Sink, sub.nodes[node.node_id].operator) for sub in shard_flows]
        sink.count = sum(part.count for part in parts)
        if sink.retains:
            merged = [x for part in parts for x in getattr(part, sink.retains)]
            if isinstance(sink, CollectSink):
                # Shard order is arbitrary; restore a deterministic global
                # event-time order (ties broken by shard index).
                merged.sort(key=lambda item: item.ts)
            # A new list, like a restore: a list object only grows at its end.
            setattr(sink, sink.retains, merged)


class ShardedBackend:
    """Execute a keyed dataflow as ``shards`` parallel serial jobs."""

    name = "sharded"

    def __init__(self, shards: int = 4, key_attribute: str = "id"):
        if shards < 1:
            raise ExecutionError("sharded backend needs at least one shard")
        self.shards = shards
        self.key_attribute = key_attribute

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
        """One round of every shard of ``flow``, each on its own lane.

        Lanes that ran a round before carry their shard flows, which this
        round grows by the parent's new events; otherwise ``flow`` is split
        afresh.
        """
        split = [lane.flow for lane in lanes or () if lane.flow is not None] or None
        if split is None:
            _empty_sinks(flow)
        shard_flows = extract_shards(
            flow, self.shards, key_by_attribute(self.key_attribute), split
        )
        started = _time.perf_counter()
        results = [
            run_lane(shard_flow, settings, lane, on_crash, terminal=terminal, cut=cut)
            for shard_flow, lane in zip(shard_flows, lanes or [None] * self.shards)
        ]
        wall = _time.perf_counter() - started
        _fold_sinks(flow, shard_flows)
        return merge_shard_results(
            flow.name,
            results,
            wall,
            shards=self.shards,
            key_attribute=self.key_attribute,
        )

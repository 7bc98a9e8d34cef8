"""Partition-safety pass (RA4xx): the O3 proof, replacing "trust the
flag".

Sharded execution hash-partitions the key space and runs per-shard
copies of the graph (``extract_shards``). That is equivalent to the
serial run iff (a) a key set actually exists — an explicit
``partition_attribute`` or equi-predicates that key every stateful
operator — and (b) every operator on the sharded path keeps *per-key*
state (``key_parallel_safe``). This pass derives the key set from the
plan and proves both statically; :class:`ShardedBackend` raises these
same diagnostics as a structured :class:`ShardabilityError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.analysis.diagnostics import Diagnostic, error
from repro.analysis.schema import scan_schema
from repro.asp.datamodel import TypeRegistry
from repro.mapping.optimizer.ir import (
    CountAggregate,
    KleeneIterate,
    LogicalPlan,
    MultiWayJoin,
    StreamScan,
    WindowJoin,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.graph import Dataflow


def derived_keys(plan: LogicalPlan) -> set[tuple[str, str]]:
    """The ``(alias, attribute)`` key set the plan's equi-predicates and
    key attributes establish."""
    keys: set[tuple[str, str]] = set()
    for node in plan.root.walk():
        if isinstance(node, WindowJoin):
            for left_key, right_key in node.equi_keys:
                keys.add(left_key)
                keys.add(right_key)
        elif isinstance(node, (MultiWayJoin, CountAggregate, KleeneIterate)):
            if node.key_attribute is not None:
                for alias in node.aliases:
                    keys.add((alias, node.key_attribute))
    return keys


def plan_partition_diagnostics(
    plan: LogicalPlan,
    partition_attribute: Optional[str] = None,
    registry: Optional[TypeRegistry] = None,
    sources: Optional[Mapping[str, object]] = None,
    prove_shardable: bool = False,
) -> list[Diagnostic]:
    """RA402/RA403: does a usable key set exist, and does it resolve?"""
    out: list[Diagnostic] = []
    if partition_attribute is not None:
        for node in plan.root.walk():
            if not isinstance(node, StreamScan):
                continue
            info = scan_schema(node.event_type, registry, sources)
            if info.resolves(partition_attribute):
                continue
            message = (
                f"partition attribute '{partition_attribute}' (O3) is missing from "
                f"the inferred schema of '{node.event_type}' "
                f"(attributes: {sorted(info.attributes)}); keyed state would "
                "collapse onto the error path for every event"
            )
            if info.closed:
                out.append(error("RA402", message, node.label()))
            else:
                # Open schema: cannot prove either way, so stay silent at
                # translate time; `repro lint --strict` surfaces unknowns.
                continue
    if prove_shardable and partition_attribute is None and not derived_keys(plan):
        stateful_nodes = [
            node.label()
            for node in plan.root.walk()
            if isinstance(node, (WindowJoin, MultiWayJoin, CountAggregate, KleeneIterate))
        ]
        if stateful_nodes:
            out.append(
                error(
                    "RA403",
                    "sharded execution requested but no key set is derivable: "
                    "the pattern carries no equi-predicate and no "
                    f"partition_attribute keys {stateful_nodes}",
                    plan.pattern_name,
                )
            )
    return out


def shardability_diagnostics(
    flow: "Dataflow", output: Optional[int] = None
) -> list[Diagnostic]:
    """RA401: operators whose state mixes keys on a claimed-sharded path.

    Mirrors (and now backs) :meth:`ShardedBackend.check_shardable`.
    ``output`` restricts the proof to the operators upstream of that
    node: one keyed query's path through a dataflow it shares with
    unkeyed queries.
    """
    path = flow.upstream_of(output) if output is not None else flow.nodes
    unsafe = [
        node.name
        for node in flow.operator_nodes()
        if node.node_id in path and not node.operator.key_parallel_safe
    ]
    if not unsafe:
        return []
    return [
        error(
            "RA401",
            "dataflow is not key-parallel safe: operators "
            f"{unsafe} hold cross-key state; translate with O3 "
            "(partition_attribute) or use the serial backend",
            ", ".join(unsafe),
        )
    ]

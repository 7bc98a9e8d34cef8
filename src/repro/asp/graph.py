"""Logical dataflow graph (paper Section 2, model 3).

An ASP query is a directed acyclic graph connecting sources via operators
to sinks. Nodes hold either a :class:`~repro.asp.operators.source.Source`
or an :class:`~repro.asp.operators.base.Operator`; edges carry the input
port of the consumer (joins are binary and distinguish port 0/1).

The graph validates structure (acyclicity, port arity, reachability) and
provides the topological order the executor needs to propagate watermarks
correctly (windows of upstream operators must fire before downstream
operators finalize the same watermark).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator

from repro.asp.operators.base import Item, Operator
from repro.asp.operators.source import LogSource, Source
from repro.errors import GraphError


@dataclass(frozen=True)
class Edge:
    """Directed edge delivering items into input ``port`` of ``target``."""

    source_id: int
    target_id: int
    port: int = 0


@dataclass
class Node:
    node_id: int
    payload: Source | Operator
    name: str

    @property
    def is_source(self) -> bool:
        return isinstance(self.payload, Source)

    @property
    def operator(self) -> Operator:
        if not isinstance(self.payload, Operator):
            raise GraphError(f"node '{self.name}' is a source, not an operator")
        return self.payload

    @property
    def source(self) -> Source:
        if not isinstance(self.payload, Source):
            raise GraphError(f"node '{self.name}' is an operator, not a source")
        return self.payload


@dataclass
class Dataflow:
    """A mutable dataflow graph under construction."""

    name: str = "job"
    nodes: dict[int, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    _ids: Iterator[int] = field(default_factory=itertools.count)

    # -- construction ------------------------------------------------------

    def add_source(self, source: Source) -> int:
        node_id = next(self._ids)
        self.nodes[node_id] = Node(node_id, source, source.name)
        return node_id

    def add_operator(self, operator: Operator) -> int:
        node_id = next(self._ids)
        self.nodes[node_id] = Node(node_id, operator, operator.name)
        return node_id

    def connect(self, source_id: int, target_id: int, port: int = 0) -> None:
        if source_id not in self.nodes:
            raise GraphError(f"unknown source node {source_id}")
        if target_id not in self.nodes:
            raise GraphError(f"unknown target node {target_id}")
        if self.nodes[target_id].is_source:
            raise GraphError("cannot connect into a source node")
        self.edges.append(Edge(source_id, target_id, port))

    # -- structure queries --------------------------------------------------

    def out_edges(self, node_id: int) -> list[Edge]:
        return [e for e in self.edges if e.source_id == node_id]

    def in_edges(self, node_id: int) -> list[Edge]:
        return [e for e in self.edges if e.target_id == node_id]

    def source_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.is_source]

    def operator_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if not n.is_source]

    def sink_nodes(self) -> list[Node]:
        has_out = {e.source_id for e in self.edges}
        return [n for n in self.operator_nodes() if n.node_id not in has_out]

    def upstream_of(self, node_id: int) -> set[int]:
        """``node_id`` plus every node with a path into it."""
        inputs: dict[int, list[int]] = {}
        for edge in self.edges:
            inputs.setdefault(edge.target_id, []).append(edge.source_id)
        seen = {node_id}
        frontier = [node_id]
        while frontier:
            for source_id in inputs.get(frontier.pop(), ()):
                if source_id not in seen:
                    seen.add(source_id)
                    frontier.append(source_id)
        return seen

    def stateful_operators(self) -> list[Operator]:
        return [n.operator for n in self.operator_nodes() if n.operator.is_stateful]

    # -- validation ----------------------------------------------------------

    def topological_order(self) -> list[Node]:
        """Kahn's algorithm; raises :class:`GraphError` on cycles."""
        in_degree = {node_id: 0 for node_id in self.nodes}
        for edge in self.edges:
            in_degree[edge.target_id] += 1
        ready = sorted(node_id for node_id, deg in in_degree.items() if deg == 0)
        order: list[Node] = []
        while ready:
            node_id = ready.pop(0)
            order.append(self.nodes[node_id])
            for edge in self.out_edges(node_id):
                in_degree[edge.target_id] -= 1
                if in_degree[edge.target_id] == 0:
                    ready.append(edge.target_id)
        if len(order) != len(self.nodes):
            raise GraphError(f"dataflow '{self.name}' contains a cycle")
        return order

    def validate(self) -> None:
        """Structural well-formedness; raises on the first violation.

        The checks themselves live in the static analyzer's structural
        pass (``repro.analysis.structure``, codes RA001-RA004); this
        thin wrapper keeps the historical raise-first ``GraphError``
        contract for runtime callers. Imported lazily: the analysis
        package sits above the graph layer.
        """
        from repro.analysis.structure import structural_diagnostics

        for diagnostic in structural_diagnostics(self, require_sinks=True):
            raise GraphError(diagnostic.message)

    # -- reporting -----------------------------------------------------------

    def describe(self) -> str:
        """Human-readable plan, one line per node in topological order."""
        lines = [f"Dataflow '{self.name}':"]
        for node in self.topological_order():
            if node.is_source:
                lines.append(f"  [{node.node_id}] source {node.name}")
                continue
            inputs = ", ".join(
                f"{self.nodes[e.source_id].name}->p{e.port}"
                for e in sorted(self.in_edges(node.node_id), key=lambda e: e.port)
            )
            lines.append(
                f"  [{node.node_id}] {node.operator.kind} {node.name} <- ({inputs})"
            )
        return "\n".join(lines)

    def operator_chain_lengths(self) -> dict[str, int]:
        """Longest source-to-node path length per sink — the pipeline depth
        the paper's decomposition argument is about."""
        depth: dict[int, int] = {}
        for node in self.topological_order():
            incoming = self.in_edges(node.node_id)
            depth[node.node_id] = (
                0 if not incoming else 1 + max(depth[e.source_id] for e in incoming)
            )
        return {n.name: depth[n.node_id] for n in self.sink_nodes()}


def clone_dataflow(flow: Dataflow, *, share_sources: bool = True) -> Dataflow:
    """Deep-copy a dataflow so a second execution gets fresh operators.

    Operator instances buffer state across calls, so running the same
    graph twice requires independent copies. Source payloads are shared
    by default (they are read-only event collections, often large); pass
    ``share_sources=False`` to copy them as well.
    """
    memo: dict[int, object] = {}
    if share_sources:
        for node in flow.source_nodes():
            memo[id(node.payload)] = node.payload
    return copy.deepcopy(flow, memo)


def extract_shards(
    flow: Dataflow,
    num_shards: int,
    key_selector: Callable[[Item], Hashable],
    shards: list[Dataflow] | None = None,
) -> list[Dataflow]:
    """Split a keyed dataflow into ``num_shards`` independent subgraphs.

    This is optimization O3 made physical: the key space is
    hash-partitioned (the shuffle an ASPS performs before every keyed
    operator), and each shard receives a structurally identical copy of
    the graph whose sources read only that shard's events. Because every
    stateful operator downstream is keyed, shard-local execution produces
    exactly the matches whose key lands on the shard — the union over
    shards is the full match set, with no cross-shard duplicates.

    Each shard source is a :class:`LogSource` over a per-shard log.
    ``shards``, an earlier result of this call for ``flow``, is grown
    instead of rebuilt: only the events each parent source gained since
    are routed, appended to their shard's log. Routing uses the stable
    hash of :func:`repro.asp.operators.keyby.partition_for`, so the split
    is identical across calls and processes, and a shard's log only ever
    grows at its end.
    """
    from repro.asp.operators.keyby import partition_for

    if num_shards < 1:
        raise GraphError("num_shards must be >= 1")
    if shards is None:
        shards = []
        for shard in range(num_shards):
            sub = clone_dataflow(flow)
            sub.name = f"{flow.name}@s{shard}"
            for node in sub.source_nodes():
                original = node.source
                node.payload = LogSource(
                    [], name=f"{original.name}@s{shard}", event_type=original.event_type
                )
            shards.append(sub)
    for node in flow.source_nodes():
        logs = [sub.nodes[node.node_id].source.materialized() for sub in shards]
        routed = sum(map(len, logs))
        events = node.source.materialized()
        new = (
            itertools.islice(node.source.events(), routed, None)
            if events is None
            else events[routed:]
        )
        for event in new:
            logs[partition_for(key_selector(event), num_shards)].append(event)
    return shards


def linear_pipeline(source: Source, operators: Iterable[Operator], name: str = "job") -> Dataflow:
    """Convenience constructor: source -> op1 -> op2 -> ... (all port 0)."""
    flow = Dataflow(name=name)
    prev = flow.add_source(source)
    for op in operators:
        node = flow.add_operator(op)
        flow.connect(prev, node)
        prev = node
    return flow

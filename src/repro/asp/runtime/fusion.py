"""Compile-time operator fusion — executor-level operator chaining.

An ASPS chains one-in/one-out operators into a single task so a tuple
crosses the chain without scheduler hops (Flink's operator chaining;
query-compiling engines fuse whole pipelines into one function). The
serial backend already walks linear segments iteratively; this module
goes one step further and *compiles* each maximal stateless
filter→map→… segment into a :class:`FusedSegment` whose batch call runs
every stage back to back — one dispatch and two clock reads per batch
for the whole chain instead of two clock reads per stage per event.

Fusion is an execution overlay: the :class:`~repro.asp.graph.Dataflow`
is never rewritten. Checkpoints stay keyed by node id, the static
analyzer sees the original plan, and the sharded backend clones the
original graph. Per-stage observability is preserved — exact
``events_in``/``events_out`` from the fused closure, interior channels
still framed, and per-stage busy time attributed from stride-sampled
in-segment timings (:data:`LATENCY_SAMPLE_SHIFT`).

Only provably transparent operators fuse: unary, stateless, zero
watermark delay, and no ``on_watermark`` override — so a fused segment's
composed ``watermark_delay``/``state_horizon_ms``/``key_parallel_safe``
(exposed for introspection) are exactly those of its constituents and
the RA2xx/RA4xx analyses remain valid on the unfused plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.asp.operators.base import Item, Operator
from repro.asp.runtime.observability import LATENCY_SAMPLE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.graph import Dataflow, Node
    from repro.asp.runtime.channels import Channel
    from repro.asp.runtime.clock import RuntimeClock
    from repro.asp.runtime.observability import OperatorMetrics


class FusedSegment:
    """A compiled linear chain of stateless operators.

    The executor delivers whole micro-batches to :meth:`process_batch`;
    each stage's ``process_batch`` feeds the next directly. Interior
    channels are framed with the actual item counts so channel totals
    match unfused execution exactly. The caller attributes the whole
    segment's wall time to :attr:`busy`; :meth:`finalize_metrics`
    distributes it across the stage metrics pro-rata the sampled
    per-stage timings once the run finishes.
    """

    kind = "fused"

    __slots__ = (
        "name",
        "head_id",
        "tail_id",
        "node_ids",
        "operators",
        "busy",
        "_stages",
        "_clock",
        "_stage_busy",
    )

    def __init__(
        self,
        nodes: "Sequence[Node]",
        metrics: "Sequence[OperatorMetrics]",
        interior_channels: "Sequence[Channel | None]",
        clock: "RuntimeClock",
    ):
        self.node_ids = [node.node_id for node in nodes]
        self.head_id = self.node_ids[0]
        self.tail_id = self.node_ids[-1]
        self.operators = [node.operator for node in nodes]
        self.name = "+".join(node.name for node in nodes)
        self._stages = [
            (index, op.process_batch, m, channel)
            for index, (op, m, channel) in enumerate(
                zip(self.operators, metrics, interior_channels)
            )
        ]
        self._clock = clock
        #: Whole-segment busy seconds, accumulated by the caller around
        #: each :meth:`process_batch` invocation (two clock reads per
        #: batch — the entire point of fusing).
        self.busy = 0.0
        self._stage_busy = [0.0] * len(self._stages)

    # -- data path --------------------------------------------------------

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        """Run one micro-batch through every stage of the chain (the
        head is unary: ``port`` is always 0).

        A stage is timed when its ``events_in`` crosses a multiple of
        ``1 << LATENCY_SAMPLE_SHIFT`` — the stride sample of an unfused
        hop — and the timing feeds the stage's latency histogram and the
        busy-time attribution weights."""
        now = self._clock.now
        for index, fn, metrics, channel in self._stages:
            n_in = len(items)
            before = metrics.events_in
            metrics.events_in = after = before + n_in
            if before >> LATENCY_SAMPLE_SHIFT == after >> LATENCY_SAMPLE_SHIFT:
                items = fn(items, 0)
            else:
                start = now()
                items = fn(items, 0)
                elapsed = now() - start
                self._stage_busy[index] += elapsed
                metrics.latency.observe(elapsed / n_in)
            if not items:
                return []
            metrics.events_out += len(items)
            if channel is not None:
                channel.frame_items(len(items))
        return list(items) if not isinstance(items, list) else items

    # -- metrics ----------------------------------------------------------

    def finalize_metrics(self) -> None:
        """Distribute the caller-measured segment busy time across the
        stage metrics, weighted by the sampled in-segment timings (even
        split when no batch was sampled). Idempotent: consumed busy time
        is zeroed."""
        total = sum(self._stage_busy)
        if total > 0.0:
            for (_i, _fn, metrics, _ch), sampled in zip(self._stages, self._stage_busy):
                metrics.busy += self.busy * (sampled / total)
        elif self._stages:
            share = self.busy / len(self._stages)
            for _i, _fn, metrics, _ch in self._stages:
                metrics.busy += share
        self.busy = 0.0
        for i in range(len(self._stage_busy)):
            self._stage_busy[i] = 0.0

    # -- composed introspection (RA2xx/RA4xx contracts) -------------------

    def watermark_delay(self) -> int:
        return sum(op.watermark_delay() for op in self.operators)

    def state_horizon_ms(self) -> int | None:
        horizons = [op.state_horizon_ms() for op in self.operators]
        if any(h is None for h in horizons):
            return None
        return max(horizons, default=0)

    @property
    def key_parallel_safe(self) -> bool:
        return all(op.key_parallel_safe for op in self.operators)

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "stages": [op.name for op in self.operators],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FusedSegment({self.name!r})"


def _fusible(node: "Node") -> bool:
    """Transparent to fuse: unary, stateless, no event-time behaviour."""
    if node.is_source:
        return False
    op = node.operator
    return (
        op.arity == 1
        and op.kind != "sink"
        and not op.is_stateful
        and op.watermark_delay() == 0
        and type(op).on_watermark is Operator.on_watermark
    )


def build_fused_segments(
    flow: "Dataflow",
    op_metrics: "dict[int, OperatorMetrics]",
    channels: "dict[int, list[Channel]]",
    clock: "RuntimeClock",
    *,
    exclude_nodes: frozenset[int] = frozenset(),
    exclude_edges: frozenset[tuple[int, int]] = frozenset(),
) -> dict[int, FusedSegment]:
    """Find maximal fusible chains; one :class:`FusedSegment` per head.

    A chain grows from a fusible head along single out-edges whose target
    receives *only* that edge, on port 0 — so entering at the head is the
    only way items reach the interior, and fusing cannot change delivery
    order. ``exclude_nodes`` (operators with injected slow delays) and
    ``exclude_edges`` (severed channels) never fuse: their effects are
    applied on the unfused path. Chains shorter than two stages are not
    worth a segment object.
    """
    in_counts = {node_id: len(flow.in_edges(node_id)) for node_id in flow.nodes}
    segments: dict[int, FusedSegment] = {}
    assigned: set[int] = set()
    for node in flow.topological_order():
        node_id = node.node_id
        if node_id in assigned or node_id in exclude_nodes or not _fusible(node):
            continue
        chain = [node]
        current = node_id
        while True:
            outs = channels[current]
            if len(outs) != 1:
                break
            channel = outs[0]
            target_id = channel.target_id
            target = flow.nodes[target_id]
            if (
                channel.port != 0
                or (current, target_id) in exclude_edges
                or target_id in assigned
                or target_id in exclude_nodes
                or in_counts[target_id] != 1
                or not _fusible(target)
            ):
                break
            chain.append(target)
            current = target_id
        if len(chain) < 2:
            continue
        interior = [channels[n.node_id][0] for n in chain[:-1]] + [None]
        segment = FusedSegment(
            chain,
            [op_metrics[n.node_id] for n in chain],
            interior,
            clock,
        )
        segments[segment.head_id] = segment
        assigned.update(segment.node_ids)
    return segments

"""Time & watermark pass (RA2xx).

Plan-level: window bounds must be non-degenerate (``WindowSpec`` /
``IntervalBounds`` would refuse them at operator-construction time; the
analyzer reports them *before* compilation with a stable code) and the
slide must satisfy the paper's Theorem 2 when stream-frequency metadata
is supplied.

Graph-level: watermark delays accumulate along paths (the executor's
event-time re-assignment, paper Section 4.2.2). A union whose inputs
carry *different* accumulated delays merges streams whose event times
lag each other — correct under the reduced watermark, but a latency
cliff worth surfacing. Declared out-of-orderness that reaches an
operator's state horizon means late events can arrive after the state
that should match them was evicted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.errors import GraphError
from repro.mapping.optimizer.ir import (
    CountAggregate,
    KleeneIterate,
    LogicalPlan,
    MultiWayJoin,
    NseqPrepare,
    WindowJoin,
    WindowStrategy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.graph import Dataflow


def _window_diagnostics(where: str, size: int, slide: int) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if size <= 0:
        out.append(error("RA201", f"window size {size} must be positive", where))
    if slide <= 0:
        out.append(error("RA201", f"window slide {slide} must be positive", where))
    if size > 0 and slide > size:
        out.append(
            error(
                "RA201",
                f"window slide {slide} larger than size {size} would drop events",
                where,
            )
        )
    return out


def plan_time_diagnostics(
    plan: LogicalPlan,
    min_inter_event_gap: Optional[int] = None,
) -> list[Diagnostic]:
    """RA201/RA202/RA203 findings over the logical plan."""
    out: list[Diagnostic] = []
    for node in plan.root.walk():
        if isinstance(node, WindowJoin):
            if node.strategy is WindowStrategy.INTERVAL:
                # O1 derives (0, W) / (-W, W); both are empty iff W <= 0.
                if node.window_size <= 0:
                    out.append(
                        error(
                            "RA202",
                            f"interval bounds derived from window size "
                            f"{node.window_size} are empty",
                            node.label(),
                        )
                    )
            else:
                out.extend(
                    _window_diagnostics(node.label(), node.window_size, node.window_slide)
                )
        elif isinstance(node, (MultiWayJoin, CountAggregate, KleeneIterate)):
            out.extend(
                _window_diagnostics(node.label(), node.window_size, node.window_slide)
            )
        elif isinstance(node, NseqPrepare):
            if node.window_size <= 0:
                out.append(
                    error(
                        "RA201",
                        f"window size {node.window_size} must be positive",
                        node.label(),
                    )
                )
    if min_inter_event_gap is not None and plan.window_slide > max(1, min_inter_event_gap):
        out.append(
            error(
                "RA203",
                f"slide {plan.window_slide} exceeds the minimal inter-event "
                f"gap {min_inter_event_gap}; matches may be lost (Theorem 2)",
                plan.pattern_name,
            )
        )
    return out


def accumulated_delays(flow: "Dataflow") -> dict[int, int]:
    """Worst-case watermark delay accumulated from the sources to each
    node's *input* (sum of upstream operators' ``watermark_delay``)."""
    delays: dict[int, int] = {}
    for node in flow.topological_order():
        incoming = flow.in_edges(node.node_id)
        if not incoming:
            delays[node.node_id] = 0
            continue
        worst = 0
        for edge in incoming:
            upstream = flow.nodes[edge.source_id]
            extra = 0 if upstream.is_source else upstream.operator.watermark_delay()
            worst = max(worst, delays[edge.source_id] + extra)
        delays[node.node_id] = worst
    return delays


def flow_time_diagnostics(
    flow: "Dataflow",
    max_out_of_orderness: int = 0,
) -> list[Diagnostic]:
    """RA204/RA205 findings over the physical dataflow."""
    from repro.asp.operators.union import UnionOperator

    out: list[Diagnostic] = []
    try:
        delays = accumulated_delays(flow)
    except GraphError:
        return out  # the structural pass reports the cycle
    for node in flow.operator_nodes():
        operator = node.operator
        if isinstance(operator, UnionOperator):
            incoming = flow.in_edges(node.node_id)
            per_input: set[int] = set()
            for edge in incoming:
                upstream = flow.nodes[edge.source_id]
                extra = 0 if upstream.is_source else upstream.operator.watermark_delay()
                per_input.add(delays[edge.source_id] + extra)
            if len(per_input) > 1:
                out.append(
                    warning(
                        "RA205",
                        f"union '{node.name}' merges inputs with asymmetric "
                        f"accumulated watermark delays {sorted(per_input)}; the "
                        "slower path gates the merged watermark",
                        node.name,
                    )
                )
        if max_out_of_orderness > 0 and operator.is_stateful:
            horizon = operator.state_horizon_ms()
            if horizon is not None and 0 < horizon <= max_out_of_orderness:
                out.append(
                    warning(
                        "RA204",
                        f"declared out-of-orderness {max_out_of_orderness}ms reaches "
                        f"the {horizon}ms state horizon of '{node.name}'; late events "
                        "may arrive after their matching state was evicted",
                        node.name,
                    )
                )
    return out

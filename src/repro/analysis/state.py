"""State-boundedness pass (RA3xx): the O2 motivation, checked statically.

Every stateful operator must declare a *state horizon* — the event-time
span beyond which watermark progress provably evicts its buffers
(:meth:`~repro.asp.operators.base.Operator.state_horizon_ms`). An
operator without one holds state forever on an unbounded stream; under
the paper's mandatory windows that is always a bug, and it is exactly
what O2 fixes for join-mapped iterations.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.mapping.optimizer.ir import (
    CountAggregate,
    KleeneIterate,
    LogicalPlan,
    MultiWayJoin,
    WindowJoin,
    WindowStrategy,
)
from repro.sea.ast import Iteration, Pattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.graph import Dataflow

#: A sliding window that keeps this many concurrent panes per event is a
#: state (and work) multiplier worth flagging; mirrors the advisor's
#: ``MANY_WINDOWS_THRESHOLD``.
MANY_WINDOWS_THRESHOLD = 30

#: Join-mapped iterations self-join m times; beyond this the partial
#: results grow combinatorially (the Figure 3e/3f blow-up O2 removes).
ITERATION_JOIN_THRESHOLD = 4


def flow_state_diagnostics(flow: "Dataflow") -> list[Diagnostic]:
    """RA301: stateful operators whose state no watermark ever evicts."""
    out: list[Diagnostic] = []
    for node in flow.operator_nodes():
        operator = node.operator
        if not operator.is_stateful:
            continue
        horizon = operator.state_horizon_ms()
        if horizon is None:
            out.append(
                error(
                    "RA301",
                    f"stateful operator '{node.name}' ({operator.kind}) declares "
                    "no state horizon; its buffers are unbounded on an unbounded "
                    "stream",
                    node.name,
                )
            )
        elif horizon < 0:
            out.append(
                error(
                    "RA301",
                    f"stateful operator '{node.name}' declares a negative state "
                    f"horizon {horizon}",
                    node.name,
                )
            )
    return out


def plan_state_diagnostics(
    plan: LogicalPlan,
    pattern: Optional[Pattern] = None,
    iteration_strategy: str = "join",
) -> list[Diagnostic]:
    """RA302–RA304: statically visible state multipliers and the
    approximate-vs-exact iteration mismatch surface."""
    out: list[Diagnostic] = []
    for node in plan.root.walk():
        if isinstance(node, CountAggregate):
            # O2's γcount emits one approximate match per (key, window)
            # while the exact KleeneIterate operator enumerates the
            # same iterations exactly, under the same windowed state
            # bound. Surfacing the trade keeps the `aggregate` iteration
            # strategy an informed choice rather than a silent output change.
            out.append(
                warning(
                    "RA304",
                    "plan maps this iteration to the approximate O2 count "
                    "(one match per key and window); the exact "
                    "Kleene operator covers the same pattern with the same "
                    "bounded state — translate with "
                    "iteration_strategy='exact' (--iter exact) unless "
                    "approximate output was deliberate",
                    node.label(),
                )
            )
    if pattern is not None and iteration_strategy != "aggregate":
        for node in pattern.root.walk():
            if (
                isinstance(node, Iteration)
                and not node.minimum_occurrences  # Kleene+ always maps via O2
                and node.count >= ITERATION_JOIN_THRESHOLD
            ):
                out.append(
                    warning(
                        "RA302",
                        f"ITER{node.count} maps to a {node.count - 1}-fold self-join "
                        "whose partial matches grow combinatorially; consider O2 "
                        "(aggregate iterations)",
                        pattern.name,
                    )
                )
    worst: tuple[int, str] | None = None
    for node in plan.root.walk():
        size: int | None = None
        slide: int | None = None
        if isinstance(node, WindowJoin) and node.strategy is WindowStrategy.SLIDING:
            size, slide = node.window_size, node.window_slide
        elif isinstance(node, (MultiWayJoin, CountAggregate, KleeneIterate)):
            size, slide = node.window_size, node.window_slide
        if size is None or slide is None or size <= 0 or slide <= 0:
            continue
        panes = math.ceil(size / slide)
        if panes >= MANY_WINDOWS_THRESHOLD and (worst is None or panes > worst[0]):
            worst = (panes, node.label())
    if worst is not None:
        out.append(
            warning(
                "RA303",
                f"every event participates in ~{worst[0]} concurrent window panes; "
                "state and work scale accordingly (consider O1 interval joins or a "
                "coarser slide)",
                worst[1],
            )
        )
    return out

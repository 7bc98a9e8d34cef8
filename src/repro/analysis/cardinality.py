"""Cardinality & state abstract interpretation over the logical plan IR
(RA80x).

One bottom-up interpreter propagates *two* precisions through every plan
node:

* a **point estimate** — the optimizer's best guess (``NodeCost``), with
  per-node arithmetic identical to what phase-2 rewrite decisions price
  against. :func:`repro.mapping.optimizer.cost.estimate_node` delegates
  here, so the optimizer's estimates and the verifier's proofs come from
  one analysis instead of two heuristic sets.
* a **guaranteed interval** — sound bounds on output rate and buffered
  state. Filters and join predicates can only *discard* (selectivity in
  ``[0, 1]``), so upper bounds survive every unknown selectivity; rates
  the model cannot bound propagate as ``+inf`` ("unknown"), which is
  deliberately distinct from *structural* unboundedness (a window that
  never evicts, an unbounded Kleene iteration realized as a join chain)
  — only the latter is an RA801 error.

The lower bound is almost always 0 (a filter may reject everything); the
value of the interval domain is the proven upper bound, which the RA803
budget check and the state-boundedness story (DESIGN.md §13) key on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.asp.datamodel import TypeRegistry
from repro.mapping.optimizer.cost import (
    DEFAULT_RATE,
    EQUI_KEY_SELECTIVITY,
    ORDER_SELECTIVITY,
    CostModel,
    NodeCost,
    StaticCostModel,
    join_ordinals,
    predicate_selectivity,
)
from repro.mapping.optimizer.ir import (
    CountAggregate,
    JoinKind,
    KleeneIterate,
    LogicalPlan,
    MultiWayJoin,
    NseqPrepare,
    Permute,
    PlanNode,
    PostFilter,
    SchemaAlign,
    StreamScan,
    UnionAll,
    WindowJoin,
    WindowStrategy,
)


def _mul(a: float, b: float) -> float:
    """Interval-safe product: a zero rate annihilates even an unknown
    (infinite) partner — no events in, no pairs out."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Interval:
    """A sound ``[lo, hi]`` bound on a nonnegative quantity; ``hi`` may be
    ``math.inf`` (unknown or structurally unbounded)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"malformed interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @classmethod
    def unknown(cls) -> "Interval":
        return cls(0.0, math.inf)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scaled(self, factor: float) -> "Interval":
        return Interval(_mul(self.lo, factor), _mul(self.hi, factor))

    def render(self) -> str:
        hi = "inf" if not self.bounded else f"{self.hi:.4g}"
        return f"[{self.lo:.4g}, {hi}]"


@dataclass(frozen=True)
class NodeBounds:
    """Both precisions for one plan node.

    ``point`` is the optimizer's estimate (identical numbers to the
    historical ``estimate_node``); ``out_rate``/``state`` are guaranteed
    intervals. ``unbounded_reason`` names the structural cause when state
    is provably infinite regardless of input rates; ``introduces`` marks
    the node where that infinity *entered* the plan (one RA801 per cause,
    not one per ancestor).
    """

    point: NodeCost
    out_rate: Interval
    state: Interval
    unbounded_reason: Optional[str] = None
    introduces: bool = False


def _window_seconds(size_ms: int) -> float:
    return max(size_ms, 1) / 1000.0


def _unbounded_prefixes(plan: LogicalPlan) -> frozenset[str]:
    """Alias prefixes (``v[``) of unbounded ITER constructs: scans of a
    join-mapped iteration chain are named ``alias[i]`` by the builder."""
    if plan.features is None:
        return frozenset()
    return frozenset(
        f"{info.alias}[" for info in plan.features.iterations if info.unbounded
    )


def _joins_unbounded_chain(node: PlanNode, prefixes: frozenset[str]) -> bool:
    return any(
        alias.startswith(prefix) for alias in node.aliases for prefix in prefixes
    )


def interpret_node(
    node: PlanNode,
    model: CostModel,
    cache: dict[int, NodeBounds],
    join_ordinals: Mapping[int, int],
    unbounded_prefixes: frozenset[str] = frozenset(),
) -> NodeBounds:
    """Bottom-up abstract interpretation of one node (memoized by id)."""
    hit = cache.get(id(node))
    if hit is not None:
        return hit
    children = [
        interpret_node(c, model, cache, join_ordinals, unbounded_prefixes)
        for c in node.inputs()
    ]
    inherited = next((c.unbounded_reason for c in children if c.unbounded_reason), None)
    introduces: Optional[str] = None

    if isinstance(node, StreamScan):
        rate = model.scan_rate(node)
        in_rate = rate if rate is not None else DEFAULT_RATE
        out = in_rate * model.scan_selectivity(node)
        point = NodeCost(out_rate=out, cpu=in_rate * max(len(node.filters), 1), state=0.0)
        out_iv = Interval(0.0, rate if rate is not None else math.inf)
        state_iv = Interval.point(0.0)
    elif isinstance(node, WindowJoin):
        left, right = children
        window = _window_seconds(node.window_size)
        pairs = left.point.out_rate * right.point.out_rate * window
        selectivity = model.join_selectivity(node, join_ordinals.get(id(node), 0))
        if node.strategy is WindowStrategy.INTERVAL:
            cpu = left.point.out_rate + right.point.out_rate + pairs
            state = (left.point.out_rate + right.point.out_rate) * window
            state_hi = _mul(left.out_rate.hi + right.out_rate.hi, window)
        else:
            windows_per_event = max(node.window_size // max(node.window_slide, 1), 1)
            cpu = (left.point.out_rate + right.point.out_rate) * windows_per_event + pairs
            state = (left.point.out_rate + right.point.out_rate) * window * windows_per_event
            state_hi = _mul(
                left.out_rate.hi + right.out_rate.hi, window * windows_per_event
            )
        point = NodeCost(out_rate=pairs * selectivity, cpu=cpu, state=state)
        out_iv = Interval(0.0, _mul(_mul(left.out_rate.hi, right.out_rate.hi), window))
        if node.window_size <= 0:
            introduces = "window size <= 0 never evicts the join buffers"
            state_hi = math.inf
        elif inherited is None and _joins_unbounded_chain(node, unbounded_prefixes):
            introduces = (
                "unbounded Kleene iteration realized as a join chain; partial "
                "matches grow without bound (use O2 aggregate iterations)"
            )
            state_hi = math.inf
        state_iv = Interval(0.0, state_hi)
    elif isinstance(node, MultiWayJoin):
        window = _window_seconds(node.window_size)
        rates = [c.point.out_rate for c in children]
        pairs = 1.0
        for rate in rates:
            pairs *= max(rate * window, 1e-9)
        pairs /= window  # n-tuples per second
        cpu = sum(rates) + pairs
        state = sum(rates) * window
        selectivity = ORDER_SELECTIVITY if node.ordered else 1.0
        if node.key_attribute:
            selectivity *= EQUI_KEY_SELECTIVITY
        point = NodeCost(out_rate=pairs * selectivity, cpu=cpu, state=state)
        tuples_hi = 1.0
        for child in children:
            tuples_hi = _mul(tuples_hi, _mul(child.out_rate.hi, window))
        out_iv = Interval(0.0, tuples_hi / window if tuples_hi else 0.0)
        state_hi = _mul(sum(c.out_rate.hi for c in children), window)
        if node.window_size <= 0:
            introduces = "window size <= 0 never evicts the join buffers"
            state_hi = math.inf
        state_iv = Interval(0.0, state_hi)
    elif isinstance(node, CountAggregate):
        (inner,) = children
        window = _window_seconds(node.window_size)
        slide_s = max(node.window_slide, 1) / 1000.0
        point = NodeCost(
            out_rate=min(1.0 / slide_s, inner.point.out_rate),
            cpu=inner.point.out_rate,
            state=inner.point.out_rate * window,
        )
        out_iv = Interval(0.0, min(1.0 / slide_s, inner.out_rate.hi))
        state_hi = _mul(inner.out_rate.hi, window)
        if node.window_size <= 0:
            introduces = "window size <= 0 never evicts the aggregate buffers"
            state_hi = math.inf
        state_iv = Interval(0.0, state_hi)
    elif isinstance(node, KleeneIterate):
        (inner,) = children
        window = _window_seconds(node.window_size)
        per_window = max(inner.point.out_rate * window, 0.0)
        # Compositions per window: C(n, m) for the bounded arity; the
        # unbounded form sums all arities >= m (2^n worst case). The
        # point estimate keeps the bounded-arity product — honest for
        # the sparse workloads the exact mapping targets — while the
        # interval hi records the exponential blowup explicitly.
        tuples = 1.0
        for _ in range(node.minimum):
            tuples = _mul(tuples, max(per_window, 1e-9))
        out = tuples / window if window > 0 else tuples
        point = NodeCost(
            out_rate=out,
            cpu=inner.point.out_rate + out,
            state=inner.point.out_rate * window,
        )
        out_hi = math.inf if node.unbounded else _mul(
            tuples if per_window else 0.0, 1.0 / window if window > 0 else 1.0
        )
        out_iv = Interval(0.0, out_hi)
        state_hi = _mul(inner.out_rate.hi, window)
        if node.window_size <= 0:
            introduces = "window size <= 0 never evicts the Kleene buffers"
            state_hi = math.inf
        state_iv = Interval(0.0, state_hi)
    elif isinstance(node, NseqPrepare):
        first, negated = children
        window = _window_seconds(node.window_size)
        point = NodeCost(
            out_rate=first.point.out_rate,
            cpu=first.point.out_rate + negated.point.out_rate,
            state=(first.point.out_rate + negated.point.out_rate) * window,
        )
        out_iv = Interval(0.0, first.out_rate.hi)
        state_hi = _mul(first.out_rate.hi + negated.out_rate.hi, window)
        if node.window_size <= 0:
            introduces = "window size <= 0 never evicts the NSEQ buffers"
            state_hi = math.inf
        state_iv = Interval(0.0, state_hi)
    elif isinstance(node, UnionAll):
        out = sum(c.point.out_rate for c in children)
        point = NodeCost(out_rate=out, cpu=out, state=0.0)
        out_iv = Interval(
            sum(c.out_rate.lo for c in children),
            sum(c.out_rate.hi for c in children),
        )
        state_iv = Interval.point(0.0)
    elif isinstance(node, PostFilter):
        (inner,) = children
        selectivity = 1.0
        for pred in node.predicates:
            selectivity *= predicate_selectivity(pred)
        point = NodeCost(
            out_rate=inner.point.out_rate * selectivity,
            cpu=inner.point.out_rate,
            state=0.0,
        )
        out_iv = Interval(0.0, inner.out_rate.hi)
        state_iv = Interval.point(0.0)
    elif isinstance(node, (SchemaAlign, Permute)):
        (inner,) = children
        point = NodeCost(out_rate=inner.point.out_rate, cpu=inner.point.out_rate, state=0.0)
        out_iv = inner.out_rate
        state_iv = Interval.point(0.0)
    else:
        inner_rate = children[0].point.out_rate if children else DEFAULT_RATE
        point = NodeCost(out_rate=inner_rate, cpu=inner_rate, state=0.0)
        out_iv = children[0].out_rate if children else Interval.unknown()
        state_iv = Interval.point(0.0)

    bounds = NodeBounds(
        point=point,
        out_rate=out_iv,
        state=state_iv,
        unbounded_reason=introduces or inherited,
        introduces=introduces is not None,
    )
    cache[id(node)] = bounds
    return bounds


@dataclass(frozen=True)
class CardinalityBounds:
    """Whole-plan result: per-node bounds in walk (pre-)order."""

    nodes: tuple[tuple[str, NodeBounds], ...]
    total_state: Interval
    total_cpu: float

    def state_upper(self) -> float:
        return self.total_state.hi

    def as_dict(self) -> dict[str, object]:
        return {
            "total_state": [self.total_state.lo, self.total_state.hi],
            "total_cpu": self.total_cpu,
            "nodes": [
                {
                    "node": label,
                    "out_rate": [b.out_rate.lo, b.out_rate.hi],
                    "state": [b.state.lo, b.state.hi],
                    "point_out_rate": b.point.out_rate,
                    "point_state": b.point.state,
                }
                for label, b in self.nodes
            ],
        }


def plan_bounds(plan: LogicalPlan, model: CostModel) -> CardinalityBounds:
    """Interpret a whole plan; one walk serves both precisions."""
    cache: dict[int, NodeBounds] = {}
    ordinals = join_ordinals(plan.root)
    prefixes = _unbounded_prefixes(plan)
    interpret_node(plan.root, model, cache, ordinals, prefixes)
    nodes = tuple((node.label(), cache[id(node)]) for node in plan.root.walk())
    total_state = Interval.point(0.0)
    for _label, bound in nodes:
        total_state = total_state + bound.state
    return CardinalityBounds(
        nodes=nodes,
        total_state=total_state,
        total_cpu=sum(b.point.cpu for _label, b in nodes),
    )


def _is_pure_cross(node: PlanNode) -> bool:
    if isinstance(node, WindowJoin):
        return (
            node.kind is JoinKind.CROSS
            and not node.ordered
            and not node.equi_keys
            and not node.extra_theta
            and node.consecutive_condition is None
        )
    if isinstance(node, MultiWayJoin):
        return not node.ordered and not node.key_attribute and not node.extra_theta
    return False


def plan_cardinality_diagnostics(
    plan: LogicalPlan,
    *,
    model: Optional[CostModel] = None,
    registry: Optional[TypeRegistry] = None,
    state_budget: Optional[float] = None,
) -> list[Diagnostic]:
    """RA801/RA802/RA803: the bounds-derived findings for one plan."""
    if model is None:
        model = StaticCostModel(registry)
    cache: dict[int, NodeBounds] = {}
    interpret_node(
        plan.root, model, cache, join_ordinals(plan.root), _unbounded_prefixes(plan)
    )
    out: list[Diagnostic] = []
    nodes = [(node, cache[id(node)]) for node in plan.root.walk()]
    for node, nb in nodes:
        label = node.label()
        if nb.introduces:
            out.append(
                error(
                    "RA801",
                    f"state bound of {label} is infinite: {nb.unbounded_reason}",
                    label,
                )
            )
        if _is_pure_cross(node):
            inputs = " x ".join(
                f"{cache[id(c)].point.out_rate:.3g}/s" for c in node.inputs()
            )
            out.append(
                warning(
                    "RA802",
                    f"join has no equi key, order constraint or theta predicate; "
                    f"it enumerates every in-window pair "
                    f"(~{nb.point.out_rate:.3g} tuples/s from {inputs}); "
                    "add a WHERE constraint or partition key",
                    label,
                )
            )
    if state_budget is not None:
        total_hi = sum(nb.state.hi for _node, nb in nodes)
        worst_node, worst_nb = max(nodes, key=lambda item: item[1].state.hi)
        worst = worst_node.label()
        if math.isfinite(total_hi):
            if total_hi > state_budget:
                out.append(
                    warning(
                        "RA803",
                        f"proven state bound {total_hi:.4g} buffered items exceeds "
                        f"the budget of {state_budget:g} "
                        f"(largest holder: {worst})",
                        worst,
                    )
                )
        else:
            point_total = sum(nb.point.state for _node, nb in nodes)
            if point_total > state_budget:
                out.append(
                    warning(
                        "RA803",
                        f"estimated state {point_total:.4g} buffered items exceeds "
                        f"the budget of {state_budget:g}; the bound is unproven "
                        "(unknown input rates), provide registry rates to tighten it",
                        worst,
                    )
                )
    return out

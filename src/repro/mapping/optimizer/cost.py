"""Phase-2 cost models: pricing logical plans to drive rewrite decisions.

Two implementations of one interface:

* :class:`StaticCostModel` — heuristics only. Stream rates come from the
  type registry's ``mean_period_ms`` metadata (when present); filter
  selectivities from per-operator defaults (equality is selective, ranges
  moderately so). This mirrors what the advisor always did.
* :class:`ProfileCostModel` — metrics-fed. Wraps a
  :class:`~repro.asp.runtime.observability.costprofile.CostProfile`
  parsed from a prior run's ``repro.metrics/v1`` report, so observed
  per-alias volumes and selectivities replace the guesses; anything the
  profile did not observe falls back to the static model.

The unit of ``rate`` is events per second when real rates are known and
an arbitrary-but-consistent volume unit otherwise: every rewrite decision
compares rates or costs against each other, never against absolute
thresholds with physical units, so only ratios matter.

:func:`estimate_plan` walks a plan bottom-up and produces a per-node
:class:`NodeCost` plus a scalar total, using a coarse window-join model:
a sliding join touches every event once per overlapping window
(``W/slide`` of them) while an interval join (O1) creates one window per
*left* event — which is exactly why putting the sparse stream on the
left pays (paper Section 4.3.1, 5.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.asp.datamodel import TypeRegistry
from repro.mapping.optimizer.ir import (
    LogicalPlan,
    PlanNode,
    StreamScan,
    WindowJoin,
)
from repro.sea.predicates import Compare, Predicate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.runtime.observability.costprofile import CostProfile

#: Default stream rate when neither registry metadata nor a profile says
#: anything — neutral: all unknown streams price identically.
DEFAULT_RATE = 1.0

#: Heuristic filter selectivities by comparison operator. An equality
#: pins an attribute to one value (selective); ranges keep a sizeable
#: fraction; inequality excludes almost nothing.
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.4
NEQ_SELECTIVITY = 0.9
DEFAULT_SELECTIVITY = 0.5

#: Heuristic join-pair survival rates: an equi key keeps ~1/10 of pairs,
#: the sequence order predicate ~1/2, other theta conjuncts ~1/2 each.
EQUI_KEY_SELECTIVITY = 0.1
ORDER_SELECTIVITY = 0.5
THETA_SELECTIVITY = 0.5

#: Frequency ratio beyond which the interval join's content-based window
#: creation pays off (left stream at most 1/ratio of the right's rate).
#: Shared by the O1 rewrite rule and the advisor — one authority.
SPARSE_LEFT_RATIO = 2.0

#: Windows-per-event count beyond which sliding windows start paying a
#: noticeable duplicate-computation overhead (W / slide). Shared by the
#: O1 rewrite rule and the advisor.
MANY_WINDOWS_THRESHOLD = 30


def predicate_selectivity(pred: Predicate) -> float:
    """Heuristic survival fraction of one pushdown/theta conjunct."""
    if isinstance(pred, Compare):
        if pred.op == "=":
            return EQ_SELECTIVITY
        if pred.op in ("<", "<=", ">", ">="):
            return RANGE_SELECTIVITY
        if pred.op in ("!=", "<>"):
            return NEQ_SELECTIVITY
    return DEFAULT_SELECTIVITY


def ordered_filters(filters: Sequence[Predicate]) -> tuple[Predicate, ...]:
    """The canonical order of a scan's conjuncts: most selective first,
    rendered text as the tie-break. The ``order-scan-filters`` rule, the
    sharability prover and the shared-scan cache all key on it, so scans
    meet whether or not phase 2 ran on their plans."""
    return tuple(sorted(filters, key=lambda p: (predicate_selectivity(p), p.render())))


@dataclass(frozen=True)
class NodeCost:
    """Bottom-up cost summary of one plan node.

    ``out_rate``: items leaving the node per unit time. ``cpu``: relative
    work per unit time (comparisons, window touches). ``state``: relative
    number of items buffered at once.
    """

    out_rate: float
    cpu: float
    state: float


class CostModel:
    """Interface shared by the static and the metrics-fed model."""

    #: Identifier recorded in rule traces and metrics reports.
    name = "abstract"

    def scan_rate(self, scan: StreamScan) -> float | None:
        """Raw (pre-filter) rate of the scanned stream; None if unknown."""
        raise NotImplementedError

    def scan_selectivity(self, scan: StreamScan) -> float:
        """Fraction of scanned events surviving the pushdown filters."""
        raise NotImplementedError

    def join_selectivity(self, join: WindowJoin, ordinal: int) -> float:
        """Fraction of in-window pairs surviving the join predicates.

        ``ordinal`` is the join's position in plan walk order, letting a
        profile-backed model align estimates with observed operators.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class StaticCostModel(CostModel):
    """Heuristics only — rates from registry metadata, selectivities from
    per-operator defaults. Deterministic given the same plan + registry."""

    name = "static"

    def __init__(self, registry: TypeRegistry | None = None):
        self.registry = registry

    def scan_rate(self, scan: StreamScan) -> float | None:
        if self.registry is not None and scan.event_type in self.registry:
            period = self.registry.get(scan.event_type).mean_period_ms
            if period:
                return 1000.0 / period
        return None

    def scan_selectivity(self, scan: StreamScan) -> float:
        selectivity = 1.0
        for pred in scan.filters:
            selectivity *= predicate_selectivity(pred)
        return selectivity

    def join_selectivity(self, join: WindowJoin, ordinal: int) -> float:
        selectivity = 1.0
        if join.ordered:
            selectivity *= ORDER_SELECTIVITY
        for _key in join.equi_keys:
            selectivity *= EQUI_KEY_SELECTIVITY
        for _pred in join.extra_theta:
            selectivity *= THETA_SELECTIVITY
        return selectivity


class ProfileCostModel(CostModel):
    """Metrics-fed — observed volumes and selectivities from a prior run.

    Scan rates come from the profile's per-alias filter counters
    (``events_in`` over the run's duration); scan selectivities are the
    observed pass fractions; join selectivities come from the run's join
    operators matched by walk order. Unobserved *selectivities* fall back
    to the wrapped static model (they are dimensionless); unobserved
    *rates* stay unknown, because the registry's event-time rates are not
    commensurable with the profile's wall-clock rates.
    """

    name = "profile"

    def __init__(self, profile: "CostProfile", registry: TypeRegistry | None = None):
        self.profile = profile
        self.fallback = StaticCostModel(registry)

    def _rate_scale(self) -> float:
        return self.profile.duration_s if self.profile.duration_s > 0 else 1.0

    def scan_rate(self, scan: StreamScan) -> float | None:
        obs = self.profile.scan(scan.alias)
        if obs is not None and obs.events_in > 0:
            return obs.events_in / self._rate_scale()
        # No static fallback here, deliberately: profile rates are in
        # wall-clock units, the registry's are in event time. Comparing
        # one side's observed rate against the other side's registry rate
        # would invent orders-of-magnitude phantom skew and misfire the
        # reorder/O1 rules. Unknown beats wrong — rate-driven rules
        # decline unless every scan they compare was observed.
        return None

    def scan_selectivity(self, scan: StreamScan) -> float:
        obs = self.profile.scan(scan.alias)
        if obs is not None and obs.events_in > 0:
            return obs.selectivity
        return self.fallback.scan_selectivity(scan)

    def join_selectivity(self, join: WindowJoin, ordinal: int) -> float:
        obs = self.profile.join(ordinal)
        if obs is not None and obs.events_in > 0:
            return obs.selectivity
        return self.fallback.join_selectivity(join, ordinal)

    def describe(self) -> str:
        job = self.profile.job_name
        return f"profile({job})" if job else "profile"


@dataclass(frozen=True)
class PlanCost:
    """Result of :func:`estimate_plan`: per-node costs in walk order."""

    nodes: tuple[tuple[str, NodeCost], ...]
    total_cpu: float
    total_state: float

    def summary(self) -> str:
        return f"cpu={self.total_cpu:.3g} state={self.total_state:.3g}"


def estimate_node(
    node: PlanNode,
    model: CostModel,
    cache: dict[int, NodeCost],
    join_ordinals: Mapping[int, int],
) -> NodeCost:
    """Bottom-up cost of one node (memoized by object identity).

    The per-node arithmetic lives in the cardinality abstract interpreter
    (:mod:`repro.analysis.cardinality`), which propagates the optimizer's
    point estimates and the verifier's guaranteed rate/state intervals in
    one walk — rewrite decisions and RA80x proofs price plans with the
    same model. The import is deferred: ``repro.analysis`` imports this
    module at load time, the reverse edge resolves at first use.
    """
    hit = cache.get(id(node))
    if hit is not None:
        return hit
    from repro.analysis.cardinality import NodeBounds, interpret_node

    bounds_cache: dict[int, NodeBounds] = {}
    interpret_node(node, model, bounds_cache, join_ordinals)
    for node_id, bounds in bounds_cache.items():
        cache.setdefault(node_id, bounds.point)
    return cache[id(node)]


def join_ordinals(root: PlanNode) -> dict[int, int]:
    """Joins numbered in *compile* order (post-order, left before right),
    matching the operator-scope numbering of the metrics report."""
    ordinals: dict[int, int] = {}

    def visit(node: PlanNode) -> None:
        for child in node.inputs():
            visit(child)
        if isinstance(node, WindowJoin):
            ordinals[id(node)] = len(ordinals)

    visit(root)
    return ordinals


def estimate_plan(plan: LogicalPlan, model: CostModel) -> PlanCost:
    """Price a whole plan; per-node costs listed in walk (pre-)order."""
    cache: dict[int, NodeCost] = {}
    ordinals = join_ordinals(plan.root)
    estimate_node(plan.root, model, cache, ordinals)
    nodes = tuple((node.label(), cache[id(node)]) for node in plan.root.walk())
    return PlanCost(
        nodes=nodes,
        total_cpu=sum(cost.cpu for _label, cost in nodes),
        total_state=sum(cost.state for _label, cost in nodes),
    )


def subtree_out_rate(node: PlanNode, model: CostModel) -> float:
    """Estimated output rate of one subtree (used by reorder decisions)."""
    cache: dict[int, NodeCost] = {}
    return estimate_node(node, model, cache, join_ordinals(node)).out_rate


def subtree_rate_known(node: PlanNode, model: CostModel) -> bool:
    """True when every scan under ``node`` has a model-known rate.

    Reorder rules decline on unknown rates rather than shuffle plans on
    the neutral :data:`DEFAULT_RATE` placeholder.
    """
    return all(
        model.scan_rate(scan) is not None
        for scan in node.walk()
        if isinstance(scan, StreamScan)
    )

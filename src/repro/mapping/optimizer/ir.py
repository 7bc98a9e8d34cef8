"""Logical plan IR — the compiler's intermediate representation.

The multi-phase query compiler (DESIGN.md §11) rewrites a SEA pattern
through explicit phases::

    pattern AST --(build)--> logical plan IR --(rules)--> physical plan
                --(translator)--> dataflow

This module defines the plan-tree IR shared by every phase:

* :mod:`repro.mapping.optimizer.build` constructs plans from patterns
  (Table 1 rules, phase 1),
* :mod:`repro.mapping.optimizer.rules` rewrites them (phase 2),
* :mod:`repro.mapping.sql` renders plans as the SQL-ish listings of the
  paper (Listings 4, 6, 8),
* :mod:`repro.mapping.translator` compiles plans to executable dataflows
  on the :mod:`repro.asp` engine (phase 4).

Every node tracks the positional ``aliases`` of the events its output
items are composed of, so predicates can be evaluated against composed
matches at any plan position. :class:`LogicalPlan` additionally carries
:class:`PlanFeatures` — pattern-shape facts recorded once during phase 1
so later phases (the rewrite rules, the advisor) never re-derive plan
shape from the pattern AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator

from repro.sea.predicates import Predicate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.optimizer.rewrite import RuleTrace


class JoinKind(Enum):
    """Logical join flavour (paper Table 1)."""

    CROSS = "cross"     # Cartesian product ×  (conjunction)
    THETA = "theta"     # Theta Join ⋈θ        (sequence / iteration)
    EQUI = "equi"       # Equi Join ⋈c         (optimization O3)


class WindowStrategy(Enum):
    """Physical windowing of a join (Section 4.3.1)."""

    SLIDING = "sliding"    # explicit sliding windows, Eq. 4/5
    INTERVAL = "interval"  # optimization O1


@dataclass(frozen=True)
class PlanNode:
    """Base class; ``aliases`` is the positional event composition."""

    @property
    def aliases(self) -> tuple[str, ...]:
        raise NotImplementedError

    def inputs(self) -> tuple["PlanNode", ...]:
        return ()

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for node in self.inputs():
            yield from node.walk()

    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class StreamScan(PlanNode):
    """Leaf: one event type with pushed-down single-alias filters."""

    event_type: str
    alias: str
    filters: tuple[Predicate, ...] = ()

    @property
    def aliases(self) -> tuple[str, ...]:
        return (self.alias,)

    def label(self) -> str:
        suffix = f" σ[{' ∧ '.join(p.render() for p in self.filters)}]" if self.filters else ""
        return f"Scan({self.event_type} {self.alias}){suffix}"


@dataclass(frozen=True)
class SchemaAlign(PlanNode):
    """Map establishing union compatibility (disjunction mapping)."""

    input: PlanNode
    target_type: str

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.input.aliases

    def inputs(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Map[align → {self.target_type}]"


@dataclass(frozen=True)
class UnionAll(PlanNode):
    """Set union ∪ — the disjunction mapping (Eq. 11 ≡ relational union)."""

    parts: tuple[PlanNode, ...]

    @property
    def aliases(self) -> tuple[str, ...]:
        # Disjunction emits single events; by convention the alias of the
        # first operand names the unified stream.
        return self.parts[0].aliases

    def inputs(self) -> tuple[PlanNode, ...]:
        return self.parts

    def label(self) -> str:
        return f"Union[{len(self.parts)}]"


@dataclass(frozen=True)
class WindowJoin(PlanNode):
    """Binary window join.

    ``ordered=True`` adds the sequence theta predicate
    ``max(left.ts) < min(right.ts)`` (Eq. 10); ``equi_keys`` holds
    attribute pairs ``(left_attr_of_alias, right_attr_of_alias)`` driving
    O3 partitioning; ``extra_theta`` are WHERE conjuncts evaluable once
    both sides are available; ``iter_condition_alias_pair`` optionally
    names the consecutive-pair condition of an iteration.
    """

    left: PlanNode
    right: PlanNode
    kind: JoinKind
    strategy: WindowStrategy
    ordered: bool
    window_size: int
    window_slide: int
    equi_keys: tuple[tuple[tuple[str, str], tuple[str, str]], ...] = ()
    extra_theta: tuple[Predicate, ...] = ()
    emit_ts: str = "min"
    #: Opaque inter-event condition of an iteration self-join, applied to
    #: (last event of left, first event of right). Not renderable to SQL;
    #: shown as a note instead.
    consecutive_condition: object | None = None

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.left.aliases + self.right.aliases

    def inputs(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        symbol = {JoinKind.CROSS: "×", JoinKind.THETA: "⋈θ", JoinKind.EQUI: "⋈c"}[self.kind]
        strategy = "interval" if self.strategy is WindowStrategy.INTERVAL else "sliding"
        order = " ordered" if self.ordered else ""
        keys = ""
        if self.equi_keys:
            keys = " keys[" + ", ".join(
                f"{l[0]}.{l[1]}={r[0]}.{r[1]}" for l, r in self.equi_keys
            ) + "]"
        return f"Join{symbol}[{strategy}{order}{keys}]"


@dataclass(frozen=True)
class MultiWayJoin(PlanNode):
    """n-ary window join — the Beam-only form of Listing 8.

    Available when every operand is a plain scan and the translator's
    ``use_multiway_joins`` option is set (paper Section 4.2.2: only Beam
    supports composing more than two streams per Window Join; other
    ASPSs fall back to consecutive binary joins).
    """

    parts: tuple[StreamScan, ...]
    ordered: bool
    window_size: int
    window_slide: int
    key_attribute: str | None = None
    extra_theta: tuple[Predicate, ...] = ()

    @property
    def aliases(self) -> tuple[str, ...]:
        out: tuple[str, ...] = ()
        for part in self.parts:
            out = out + part.aliases
        return out

    def inputs(self) -> tuple[PlanNode, ...]:
        return self.parts

    def label(self) -> str:
        symbol = " ⋈ " if self.ordered else " × "
        key = f" by {self.key_attribute}" if self.key_attribute else ""
        return f"MultiWayJoin[{symbol.join(p.event_type for p in self.parts)}{key}]"


@dataclass(frozen=True)
class CountAggregate(PlanNode):
    """Windowed count with threshold — the O2 iteration mapping.

    Emits one approximate match per (key, window) with at least
    ``minimum`` qualifying events (``γ_count(*)(T)`` then ``count >= m``).
    """

    input: PlanNode
    minimum: int
    window_size: int
    window_slide: int
    key_attribute: str | None = None
    #: "count" or "udf" (the UDF variant restoring inter-event conditions).
    flavour: str = "count"
    #: Opaque inter-event condition for the UDF flavour.
    condition: object | None = None

    @property
    def aliases(self) -> tuple[str, ...]:
        # The aggregate output is a synthetic event, not a composition.
        return (f"{self.input.aliases[0]}#agg",)

    def inputs(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        key = f" by {self.key_attribute}" if self.key_attribute else ""
        return f"γ{self.flavour}(*) >= {self.minimum}{key}"


@dataclass(frozen=True)
class KleeneIterate(PlanNode):
    """Exact ``ITER^m`` / unbounded Kleene+.

    Unlike :class:`CountAggregate` (one approximate count tuple per
    window) this emits every qualifying composition: strictly
    ts-increasing combinations of exactly ``minimum`` events (bounded) or
    at least ``minimum`` events (``unbounded=True``), with the optional
    consecutive condition applied to adjacent pairs — the oracle's Eq. 12
    semantics, window by window with first-window deduplication.
    """

    input: PlanNode
    minimum: int
    unbounded: bool
    window_size: int
    window_slide: int
    key_attribute: str | None = None
    #: Opaque inter-event condition applied to adjacent repetitions.
    condition: object | None = None

    @property
    def aliases(self) -> tuple[str, ...]:
        # Bounded: the canonical indexed repetition aliases of the join
        # chain. Unbounded compositions have no static arity; the first
        # ``minimum`` repetitions are addressable (projection zips).
        base = self.input.aliases[0]
        return tuple(f"{base}[{i}]" for i in range(1, self.minimum + 1))

    def inputs(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        arity = f"{self.minimum}+" if self.unbounded else str(self.minimum)
        key = f" by {self.key_attribute}" if self.key_attribute else ""
        return f"KleeneIterate[{arity}{key}]"


@dataclass(frozen=True)
class NseqPrepare(PlanNode):
    """Union(T1, T2) + next-occurrence UDF of the NSEQ mapping.

    Output events are the T1 events enriched with ``a_ts``; the following
    ordered join with T3 adds the selection ``a_ts >= e3.ts``.
    """

    first: StreamScan
    negated: StreamScan
    window_size: int
    keyed: bool = False

    @property
    def aliases(self) -> tuple[str, ...]:
        return (self.first.alias,)

    def inputs(self) -> tuple[PlanNode, ...]:
        return (self.first, self.negated)

    def label(self) -> str:
        return f"UDF[next {self.negated.event_type} after {self.first.event_type} within W]"


@dataclass(frozen=True)
class PostFilter(PlanNode):
    """Residual WHERE conjuncts applied to composed matches."""

    input: PlanNode
    predicates: tuple[Predicate, ...]

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.input.aliases

    def inputs(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"σ[{' ∧ '.join(p.render() for p in self.predicates)}]"


@dataclass(frozen=True)
class Permute(PlanNode):
    """Restore the canonical event composition after a join reorder.

    ``order[i]`` is the input position of the event that must appear at
    output position ``i``. The rewrite rules insert this node above a
    reordered commutative join so the optimized plan's matches stay
    byte-identical (same constituent order, hence same ``dedup_key``) to
    the default plan's. Stateless — compiles to a single map operator.
    """

    input: PlanNode
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"Permute order {self.order} is not a permutation")

    @property
    def aliases(self) -> tuple[str, ...]:
        inner = self.input.aliases
        return tuple(inner[i] for i in self.order)

    def inputs(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Permute[{', '.join(map(str, self.order))}]"


@dataclass(frozen=True)
class IterationInfo:
    """Phase-1 provenance of one ITER construct (consumed by rules/advisor)."""

    event_type: str
    alias: str
    count: int
    unbounded: bool
    condition_kind: str | None
    condition: object | None = None


@dataclass(frozen=True)
class PlanFeatures:
    """Pattern-shape facts recorded while building the IR (phase 1).

    Later compiler phases and the advisor consume these instead of
    re-walking the pattern AST: the IR is the single source of truth for
    plan shape once phase 1 has run.
    """

    #: SEA keyword of the pattern root ("SEQ", "AND", "OR", "ITER", "NSEQ", "REF").
    root_kind: str = "REF"
    #: Event types in pattern-declaration order (with repetition).
    event_types: tuple[str, ...] = ()
    #: Aliases in pattern-declaration order.
    alias_order: tuple[str, ...] = ()
    #: Rendered key-match equalities (the O3 candidates) of the WHERE clause.
    equi_predicates: tuple[str, ...] = ()
    #: One entry per ITER construct in the pattern.
    iterations: tuple[IterationInfo, ...] = ()
    #: True when the root composes two or more streams through joins.
    joins_streams: bool = False

    @property
    def first_event_type(self) -> str | None:
        return self.event_types[0] if self.event_types else None

    @property
    def later_event_types(self) -> tuple[str, ...]:
        return self.event_types[1:]

    @property
    def has_unbounded_iteration(self) -> bool:
        return any(info.unbounded for info in self.iterations)


@dataclass(frozen=True)
class LogicalPlan:
    """Root container: the plan plus bookkeeping for reporting."""

    root: PlanNode
    pattern_name: str
    window_size: int
    window_slide: int
    notes: tuple[str, ...] = field(default_factory=tuple)
    #: Phase-1 provenance (pattern shape); ``None`` only for hand-built plans.
    features: PlanFeatures | None = None
    #: Rewrite history when phase 2 ran (``optimize_plan``); ``None`` otherwise.
    trace: "RuleTrace | None" = None

    def explain(self) -> str:
        """Indented operator-tree rendering."""
        lines: list[str] = [f"LogicalPlan[{self.pattern_name}]"]

        def visit(node: PlanNode, depth: int) -> None:
            lines.append("  " * depth + "- " + node.label())
            for child in node.inputs():
                visit(child, depth + 1)

        visit(self.root, 1)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def operators(self) -> list[PlanNode]:
        return list(self.root.walk())

    def summary(self) -> dict:
        """Machine-readable plan record for ``repro.metrics/v1`` reports:
        the chosen operator tree plus, when phase 2 ran, the full rule
        trace (fired/declined decisions with cost estimates)."""
        out: dict = {
            "pattern": self.pattern_name,
            "window": {"size": self.window_size, "slide": self.window_slide},
            "operators": [node.label() for node in self.root.walk()],
            "output_aliases": list(self.root.aliases),
            "notes": list(self.notes),
        }
        if self.trace is not None:
            out["trace"] = self.trace.as_dict()
        return out

    def num_joins(self) -> int:
        return sum(1 for n in self.root.walk() if isinstance(n, WindowJoin))

    def scans(self) -> list[StreamScan]:
        return [n for n in self.root.walk() if isinstance(n, StreamScan)]

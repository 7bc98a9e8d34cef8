"""Phase 1 of the query compiler: pattern AST → logical plan IR.

Per-operator mapping rules — the paper's Table 1 made executable:

=====================  =============================================
SEA operator           ASP plan shape
=====================  =============================================
Conjunction  AND       ``T1 × T2`` (cross window join); with O3:
                       ``T1 ⋈c T2`` (equi)
Sequence     SEQ       ``T1 ⋈θ T2`` with θ = temporal order; left-deep
                       chain of n−1 joins for SEQ(n) (Section 4.2.2)
Disjunction  OR        ``map(align) ∪``
Iteration    ITER^m    ``T ⋈θ ... ⋈θ T`` (m−1 self-joins); with O2:
                       ``γ_count(*)(T)`` + threshold
Negated seq. NSEQ      ``UDF(T1 ∪ T2) ⋈θ T3`` with the ``a_ts``
                       selection (Listing 6)
=====================  =============================================

WHERE conjuncts are classified once (Section 4.1/4.3.3): single-alias
conjuncts push down into scans; two-alias equalities become Equi-Join
keys (O3) when enabled, theta conditions otherwise; everything else is
attached to the earliest join at which it is fully bound, or to a final
post-filter.

Besides the plan tree, the builder records :class:`PlanFeatures` —
pattern-shape provenance (root kind, stream order, iteration specs, O3
candidates) that phase 2 rules and the advisor consume instead of
re-traversing the pattern AST.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.asp.datamodel import TypeRegistry
from repro.errors import TranslationError
from repro.mapping.optimizations import (
    TranslationOptions,
    check_applicability,
    iteration_requires_aggregate,
)
from repro.mapping.optimizer.ir import (
    CountAggregate,
    IterationInfo,
    JoinKind,
    KleeneIterate,
    LogicalPlan,
    MultiWayJoin,
    NseqPrepare,
    PlanFeatures,
    PlanNode,
    PostFilter,
    SchemaAlign,
    StreamScan,
    UnionAll,
    WindowJoin,
)
from repro.sea.ast import (
    Conjunction,
    Disjunction,
    EventTypeRef,
    Iteration,
    NegatedSequence,
    Pattern,
    PatternNode,
    Sequence,
)
from repro.sea.predicates import (
    Attr,
    Compare,
    Predicate,
    classify_conjuncts,
)
from repro.sea.validation import validate_pattern


class _PlanBuilder:
    def __init__(self, pattern: Pattern, options: TranslationOptions):
        self.pattern = pattern
        self.options = options
        self.window_size = pattern.window.size
        self.window_slide = options.slide_override or pattern.window.slide
        single, equi, multi = classify_conjuncts(pattern.where)
        self.single = single
        self.equi_rendered = tuple(c.render() for c in equi)
        self.pending_equi: list[Compare] = list(equi)
        self.pending_multi: list[Predicate] = list(multi)
        self.notes = check_applicability(pattern, options)
        self.iterations: list[IterationInfo] = []

    # -- conjunct bookkeeping ------------------------------------------------

    def _scan(self, node: EventTypeRef, extra_bare_alias: str | None = None) -> StreamScan:
        filters = list(self.single.get(node.alias, []))
        if extra_bare_alias is not None:
            filters.extend(self.single.get(extra_bare_alias, []))
        return StreamScan(node.event_type, node.alias, tuple(filters))

    def _take_equi_keys(
        self, left_aliases: tuple[str, ...], right_aliases: tuple[str, ...]
    ) -> tuple[tuple[tuple[str, str], tuple[str, str]], ...]:
        """Consume WHERE equalities linking the two sides (O3 keys)."""
        keys: list[tuple[tuple[str, str], tuple[str, str]]] = []
        remaining: list[Compare] = []
        left_set, right_set = set(left_aliases), set(right_aliases)
        for comp in self.pending_equi:
            pair = comp.equi_join_attributes()
            assert pair is not None
            (a_alias, a_attr), (b_alias, b_attr) = pair
            if a_alias in left_set and b_alias in right_set:
                keys.append(((a_alias, a_attr), (b_alias, b_attr)))
            elif b_alias in left_set and a_alias in right_set:
                keys.append(((b_alias, b_attr), (a_alias, a_attr)))
            else:
                remaining.append(comp)
        self.pending_equi = remaining
        return tuple(keys)

    def _take_theta(self, aliases: tuple[str, ...]) -> tuple[Predicate, ...]:
        """Consume multi-alias conjuncts fully bound by ``aliases``."""
        available = set(aliases)
        taken: list[Predicate] = []
        remaining: list[Predicate] = []
        for pred in self.pending_multi:
            if pred.aliases() <= available:
                taken.append(pred)
            else:
                remaining.append(pred)
        self.pending_multi = remaining
        return tuple(taken)

    def _partition_keys(
        self, left: PlanNode, right: PlanNode
    ) -> tuple[tuple[tuple[str, str], tuple[str, str]], ...]:
        """The O3 partition-attribute key (implicit equi predicate)."""
        attr = self.options.partition_attribute
        if attr is None:
            return ()
        return (((left.aliases[0], attr), (right.aliases[0], attr)),)

    # -- join assembly ----------------------------------------------------------

    def _join(
        self,
        left: PlanNode,
        right: PlanNode,
        ordered: bool,
        consecutive_condition=None,
    ) -> WindowJoin:
        equi_keys = self._partition_keys(left, right)
        for key in self._take_equi_keys(left.aliases, right.aliases):
            # The partition attribute may coincide with an explicit
            # WHERE equality; key on it once.
            if key not in equi_keys:
                equi_keys = equi_keys + (key,)
        combined = left.aliases + right.aliases
        extra_theta = self._take_theta(combined)
        if equi_keys:
            kind = JoinKind.EQUI
        elif ordered or extra_theta:
            kind = JoinKind.THETA
        else:
            kind = JoinKind.CROSS
        return WindowJoin(
            left=left,
            right=right,
            kind=kind,
            strategy=self.options.join_strategy,
            ordered=ordered,
            window_size=self.window_size,
            window_slide=self.window_slide,
            equi_keys=equi_keys,
            extra_theta=extra_theta,
            emit_ts="min",
            consecutive_condition=consecutive_condition,
        )

    # -- node dispatch -------------------------------------------------------------

    def build(self, node: PatternNode) -> PlanNode:
        if isinstance(node, EventTypeRef):
            return self._scan(node)
        if isinstance(node, Sequence):
            multiway = self._maybe_multiway(node.parts, ordered=True)
            if multiway is not None:
                return multiway
            plan = self.build(node.parts[0])
            for part in node.parts[1:]:
                plan = self._join(plan, self.build(part), ordered=True)
            return plan
        if isinstance(node, Conjunction):
            parts = node.parts
            multiway = self._maybe_multiway(parts, ordered=False)
            if multiway is not None:
                return multiway
            plan = self.build(parts[0])
            for part in parts[1:]:
                plan = self._join(plan, self.build(part), ordered=False)
            return plan
        if isinstance(node, Disjunction):
            target = "|".join(p.event_type for p in node.parts if isinstance(p, EventTypeRef))
            aligned = tuple(
                SchemaAlign(self.build(part), target_type=target) for part in node.parts
            )
            return UnionAll(aligned)
        if isinstance(node, Iteration):
            return self._build_iteration(node)
        if isinstance(node, NegatedSequence):
            return self._build_nseq(node)
        raise TranslationError(f"no mapping rule for node {node!r}")

    def _build_iteration(self, node: Iteration) -> PlanNode:
        self.iterations.append(
            IterationInfo(
                event_type=node.operand.event_type,
                alias=node.operand.alias,
                count=node.count,
                unbounded=bool(node.minimum_occurrences),
                condition_kind=node.condition_kind,
                condition=node.condition,
            )
        )
        strategy = self.options.iteration_strategy
        if iteration_requires_aggregate(node) and strategy == "join":
            # Kleene+ has no join mapping (Table 1: unbounded m -> O2);
            # the exact operator handles unbounded natively.
            strategy = "aggregate"
        if strategy == "exact":
            scan = self._scan(
                EventTypeRef(node.operand.event_type, node.operand.alias),
                extra_bare_alias=None,
            )
            key_attribute = self.options.partition_attribute
            consumed_attr = self._consume_iteration_equi(node)
            if consumed_attr is not None and key_attribute is None:
                key_attribute = consumed_attr
            return KleeneIterate(
                input=scan,
                minimum=node.count,
                unbounded=bool(node.minimum_occurrences),
                window_size=self.window_size,
                window_slide=self.window_slide,
                key_attribute=key_attribute,
                condition=node.condition,
            )
        if strategy == "aggregate":
            scan = self._scan(
                EventTypeRef(node.operand.event_type, node.operand.alias),
                extra_bare_alias=None,
            )
            flavour = "udf" if node.condition_kind == "consecutive" else "count"
            key_attribute = self.options.partition_attribute
            # Equalities between repetitions (v[i].attr = v[j].attr) are
            # subsumed by keying the aggregate on that attribute: the
            # count then only combines same-key events.
            consumed_attr = self._consume_iteration_equi(node)
            if consumed_attr is not None and key_attribute is None:
                key_attribute = consumed_attr
            return CountAggregate(
                input=scan,
                minimum=node.count,
                window_size=self.window_size,
                window_slide=self.window_slide,
                key_attribute=key_attribute,
                flavour=flavour,
                condition=node.condition,
            )
        # Join mapping: m scans of the same type, m-1 ordered self-joins.
        op = node.operand
        scans = [
            StreamScan(
                op.event_type,
                f"{op.alias}[{i}]",
                tuple(self.single.get(f"{op.alias}[{i}]", []))
                + tuple(self.single.get(op.alias, [])),
            )
            for i in range(1, node.count + 1)
        ]
        plan: PlanNode = scans[0]
        for scan in scans[1:]:
            plan = self._join(
                plan, scan, ordered=True, consecutive_condition=node.condition
            )
        return plan

    def _maybe_multiway(
        self, parts: tuple[PatternNode, ...], ordered: bool
    ) -> MultiWayJoin | None:
        """Build the Beam-style n-ary join when the option allows it.

        Applicable only when every operand is a plain event reference
        (flat SEQ(n)/AND(n), Listing 8). WHERE conjuncts fully bound by
        the combined aliases attach as composite theta predicates; a
        partition attribute (O3) keys the whole join.
        """
        if not self.options.use_multiway_joins:
            return None
        if not all(isinstance(p, EventTypeRef) for p in parts):
            return None
        scans = tuple(self._scan(p) for p in parts)
        all_aliases: tuple[str, ...] = ()
        for scan in scans:
            all_aliases = all_aliases + scan.aliases
        key_attribute = self.options.partition_attribute
        # Equalities linking the operands on one shared attribute are
        # subsumed by keying the whole join; heterogeneous equalities stay
        # as theta predicates.
        alias_set = set(all_aliases)
        remaining: list[Compare] = []
        shared_attr: str | None = None
        homogeneous = True
        consumed: list[Compare] = []
        for comp in self.pending_equi:
            pair = comp.equi_join_attributes()
            assert pair is not None
            (a_alias, a_attr), (b_alias, b_attr) = pair
            if a_alias in alias_set and b_alias in alias_set and a_attr == b_attr:
                if shared_attr is None:
                    shared_attr = a_attr
                if a_attr == shared_attr:
                    consumed.append(comp)
                    continue
                homogeneous = False
            remaining.append(comp)
        if shared_attr is not None and homogeneous and key_attribute is None:
            # Only subsume the equalities when they connect all operands;
            # a partial chain must stay as explicit theta predicates.
            linked = set()
            for comp in consumed:
                pair = comp.equi_join_attributes()
                linked.add(pair[0][0])
                linked.add(pair[1][0])
            if linked == alias_set:
                key_attribute = shared_attr
                self.pending_equi = remaining
            else:
                self.pending_multi.extend(consumed)
                self.pending_equi = remaining
        elif consumed:
            self.pending_multi.extend(consumed)
            self.pending_equi = remaining
        extra_theta = self._take_theta(all_aliases)
        self.notes.append(
            "flat pattern composed with one n-ary window join "
            "(Beam-style multi-way join, Section 4.2.2)"
        )
        return MultiWayJoin(
            parts=scans,
            ordered=ordered,
            window_size=self.window_size,
            window_slide=self.window_slide,
            key_attribute=key_attribute,
            extra_theta=extra_theta,
        )

    def _consume_iteration_equi(self, node: Iteration) -> str | None:
        """Drop indexed self-equalities of an aggregated iteration.

        ``v[i].attr = v[j].attr`` conjuncts (both sides repetitions of the
        same iteration alias) are consumed; the shared attribute is
        returned so the aggregate can key on it. Raises when repetitions
        are compared on differing attributes (not expressible via O2).
        """
        prefix = f"{node.operand.alias}["
        consumed_attr: str | None = None
        remaining: list[Compare] = []
        for comp in self.pending_equi:
            pair = comp.equi_join_attributes()
            assert pair is not None
            (a_alias, a_attr), (b_alias, b_attr) = pair
            both_indexed = a_alias.startswith(prefix) and b_alias.startswith(prefix)
            if not both_indexed:
                remaining.append(comp)
                continue
            if a_attr != b_attr or (consumed_attr not in (None, a_attr)):
                raise TranslationError(
                    "O2 cannot express repetition equalities over differing "
                    f"attributes: {comp.render()}"
                )
            consumed_attr = a_attr
        self.pending_equi = remaining
        return consumed_attr

    def _build_nseq(self, node: NegatedSequence) -> PlanNode:
        first_scan = self._scan(node.first)
        negated_scan = self._scan(node.negated)
        last_scan = self._scan(node.last)
        keyed = self.options.partition_attribute is not None
        prepare = NseqPrepare(
            first=first_scan,
            negated=negated_scan,
            window_size=self.window_size,
            keyed=keyed,
        )
        join = self._join(prepare, last_scan, ordered=True)
        # Listing 6's NOT EXISTS becomes the a_ts selection: the next T2
        # occurrence (if any) must be at or after e3. Note the >= — Eq. 14
        # blocks on the *open* interval (e1.ts, e3.ts), so a blocker
        # exactly at e3.ts does not block; the paper's Listing 6 writes a
        # strict >, which would wrongly reject that boundary case.
        guard = Compare(
            ">=",
            Attr(node.first.alias, "a_ts"),
            Attr(node.last.alias, "ts"),
        )
        return dc_replace(join, extra_theta=join.extra_theta + (guard,))

    def features(self) -> PlanFeatures:
        """The phase-1 provenance record (pattern shape, for later phases)."""
        root = self.pattern.root
        joins_streams = isinstance(root, (Sequence, Conjunction, NegatedSequence))
        return PlanFeatures(
            root_kind=root.keyword,
            event_types=tuple(root.event_types()),
            alias_order=tuple(root.aliases()),
            equi_predicates=self.equi_rendered,
            iterations=tuple(self.iterations),
            joins_streams=joins_streams,
        )


def build_plan(
    pattern: Pattern,
    options: TranslationOptions | None = None,
    registry: TypeRegistry | None = None,
) -> LogicalPlan:
    """Translate a pattern into a logical ASP plan (Table 1)."""
    options = options or TranslationOptions()
    pattern = validate_pattern(pattern, registry=registry)
    builder = _PlanBuilder(pattern, options)
    root = builder.build(pattern.root)
    if builder.pending_equi or builder.pending_multi:
        leftover: tuple[Predicate, ...] = tuple(builder.pending_equi) + tuple(
            builder.pending_multi
        )
        # Conjuncts that never became fully bound inside a join (e.g. on a
        # disjunction output) run as a final selection over matches.
        evaluable = [p for p in leftover if p.aliases() <= set(root.aliases)]
        dangling = [p for p in leftover if not (p.aliases() <= set(root.aliases))]
        if dangling:
            raise TranslationError(
                "predicates reference aliases absent from the plan output: "
                + ", ".join(p.render() for p in dangling)
            )
        if evaluable:
            root = PostFilter(root, tuple(evaluable))
    return LogicalPlan(
        root=root,
        pattern_name=pattern.name,
        window_size=builder.window_size,
        window_slide=builder.window_slide,
        notes=tuple(builder.notes)
        + (f"options: {options.label()}",),
        features=builder.features(),
    )

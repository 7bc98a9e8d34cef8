"""The rewrite-rule inventory of the query compiler (phase 2).

Each rule is small, deterministic and individually testable: it either
fires (rewriting every matching site in one pass) or declines with the
reason — and where a genuine alternative existed, the rejected candidate
is recorded with its cost estimate for ``repro explain``.

Inventory, in application order:

1.  :class:`OrderScanFilters` — most selective pushdown filter first.
2.  :class:`PushResidualPredicates` — residual post-filter conjuncts
    move to the deepest join that binds them.
3.  :class:`ReorderCommutativeJoin` — swap a commutative (AND) join so
    the sparse stream drives window creation; a ``Permute`` restores the
    canonical composition so output stays byte-identical.
4.  :class:`ChooseIntervalWindows` — O1: flip sliding-window joins to
    interval joins when the left input is sparse or windows overlap
    heavily (the advisor's thresholds, applied per join).
5.  :class:`AnnotateFusionSegments` — records the stateless stage runs
    the batched engine will fuse into single passes; placement becomes
    auditable in ``repro explain`` without changing the plan shape.
6.  :class:`AnnotateCompiledSegments` — records which scan filters the
    batch engine runs as one generated pass, with cardinality-interval
    justifications, and what each join's pair loop is; annotation only,
    like rule 5.

Every rule preserves output and runs under the engine's RA70x invariant
check. O2 is not a rule: it changes the output contract (one approximate
match per window), so the caller chooses it through
``TranslationOptions.iteration_strategy`` and phase 1 maps it.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable

from repro.mapping.optimizer.cost import (
    MANY_WINDOWS_THRESHOLD,
    SPARSE_LEFT_RATIO,
    join_ordinals,
    ordered_filters,
    subtree_out_rate,
    subtree_rate_known,
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
from repro.mapping.optimizer.rewrite import OptimizeContext, Rule, RuleDecision
from repro.sea.predicates import Predicate


def _rebuild(node: PlanNode, fn: Callable[[PlanNode], PlanNode]) -> PlanNode:
    """Reconstruct ``node`` with ``fn`` applied to each child."""
    if isinstance(node, WindowJoin):
        return dc_replace(node, left=fn(node.left), right=fn(node.right))
    if isinstance(node, (UnionAll, MultiWayJoin)):
        return dc_replace(node, parts=tuple(fn(p) for p in node.parts))
    if isinstance(node, (SchemaAlign, PostFilter, Permute, CountAggregate, KleeneIterate)):
        return dc_replace(node, input=fn(node.input))
    if isinstance(node, NseqPrepare):
        return dc_replace(node, first=fn(node.first), negated=fn(node.negated))
    return node


class OrderScanFilters(Rule):
    """Order each scan's pushdown filters most-selective-first.

    Conjunction commutes, so only evaluation cost changes: the cheapest
    rejection happens earliest. Ordering uses the static per-operator
    selectivity heuristic (profiles observe whole filter chains, not
    individual conjuncts) with the rendered text as a deterministic
    tie-break.
    """

    name = "order-scan-filters"
    description = "evaluate the most selective pushdown filter first"

    def apply(self, plan: LogicalPlan, ctx: OptimizeContext) -> RuleDecision:
        changed: list[str] = []

        def rewrite(node: PlanNode) -> PlanNode:
            node = _rebuild(node, rewrite)
            if isinstance(node, StreamScan) and len(node.filters) > 1:
                ordered = ordered_filters(node.filters)
                if ordered != node.filters:
                    changed.append(node.alias)
                    return dc_replace(node, filters=ordered)
            return node

        root = rewrite(plan.root)
        if not changed:
            return RuleDecision.decline(
                "every scan's pushdown filters are already in selectivity order"
            )
        return RuleDecision.fire(
            dc_replace(plan, root=root),
            "reordered pushdown filters on scan(s) "
            + ", ".join(sorted(changed))
            + " (most selective conjunct first)",
        )


def _deepest_binding_join(node: PlanNode, pred: Predicate) -> PlanNode | None:
    """The deepest join whose composition fully binds ``pred``."""
    needed = pred.aliases()
    for child in node.inputs():
        hit = _deepest_binding_join(child, pred)
        if hit is not None:
            return hit
    if isinstance(node, (WindowJoin, MultiWayJoin)) and needed <= set(node.aliases):
        return node
    return None


def _attach_theta(root: PlanNode, target: PlanNode, pred: Predicate) -> PlanNode:
    """Rebuild ``root`` with ``pred`` added to ``target``'s theta set."""

    def rewrite(node: PlanNode) -> PlanNode:
        if node is target:
            assert isinstance(node, (WindowJoin, MultiWayJoin))
            updated = dc_replace(node, extra_theta=node.extra_theta + (pred,))
            if isinstance(updated, WindowJoin) and updated.kind is JoinKind.CROSS:
                # Mirror phase 1: a cross join gaining a theta conjunct is
                # a theta join.
                updated = dc_replace(updated, kind=JoinKind.THETA)
            return updated
        return _rebuild(node, rewrite)

    return rewrite(root)


class PushResidualPredicates(Rule):
    """Selection pushdown: residual post-filter conjuncts move into the
    deepest join that binds them, pruning compositions before they are
    paired further instead of after the full match is assembled. Classic
    relational pushdown; phase 1 already places conjuncts eagerly, so
    this fires mainly on hand-built or externally-generated IR.
    """

    name = "pushdown-residual-predicates"
    description = "move residual predicates into the deepest binding join"

    def apply(self, plan: LogicalPlan, ctx: OptimizeContext) -> RuleDecision:
        root = plan.root
        if not isinstance(root, PostFilter):
            return RuleDecision.decline("plan has no residual post-filter")
        inner = root.input
        moved: list[Predicate] = []
        kept: list[Predicate] = []
        for pred in root.predicates:
            target = _deepest_binding_join(inner, pred)
            if target is None:
                kept.append(pred)
                continue
            inner = _attach_theta(inner, target, pred)
            moved.append(pred)
        if not moved:
            return RuleDecision.decline(
                "residual predicates only bind at the plan output "
                "(e.g. over a disjunction); nothing can move"
            )
        new_root: PlanNode = PostFilter(inner, tuple(kept)) if kept else inner
        return RuleDecision.fire(
            dc_replace(plan, root=new_root),
            "pushed "
            + ", ".join(p.render() for p in moved)
            + " from the post-filter into the deepest binding join",
        )


class ReorderCommutativeJoin(Rule):
    """Put the sparse stream on the left of a commutative (AND) join.

    AND is symmetric — both orders yield the same match set — but the
    physical join is not: the left side drives window creation for
    interval joins (Section 4.3.1) and heads the pipeline otherwise. A
    ``Permute`` above the swapped join restores the canonical constituent
    order, so every match keeps its original ``dedup_key`` and output
    stays byte-identical.

    SEQ joins are never touched (the order predicate pins the sides) and
    neither are iteration self-joins (the consecutive condition is
    positional). Declines when the cost model does not know both sides'
    rates: shuffling plans on placeholder rates is noise, not
    optimization.
    """

    name = "reorder-commutative-join"
    description = "swap a commutative join so the sparse stream drives windows"

    def apply(self, plan: LogicalPlan, ctx: OptimizeContext) -> RuleDecision:
        swaps: list[str] = []
        alternatives: list[str] = []

        def rewrite(node: PlanNode) -> PlanNode:
            node = _rebuild(node, rewrite)
            if not (
                isinstance(node, WindowJoin)
                and not node.ordered
                and node.consecutive_condition is None
            ):
                return node
            if not (
                subtree_rate_known(node.left, ctx.model)
                and subtree_rate_known(node.right, ctx.model)
            ):
                alternatives.append(
                    f"{node.label()}: swap rejected — stream rates unknown "
                    f"to the '{ctx.model.name}' cost model"
                )
                return node
            left_rate = subtree_out_rate(node.left, ctx.model)
            right_rate = subtree_out_rate(node.right, ctx.model)
            if not (right_rate * SPARSE_LEFT_RATIO <= left_rate):
                alternatives.append(
                    f"{node.label()}: swap rejected — left already sparse "
                    f"enough ({left_rate:.3g} vs {right_rate:.3g} ev/s, "
                    f"threshold {SPARSE_LEFT_RATIO}x)"
                )
                return node
            swapped = dc_replace(
                node,
                left=node.right,
                right=node.left,
                equi_keys=tuple((r, l) for l, r in node.equi_keys),
            )
            size_left = len(node.left.aliases)
            size_right = len(node.right.aliases)
            order = tuple(range(size_right, size_right + size_left)) + tuple(
                range(size_right)
            )
            swaps.append(
                f"{node.label()}: right side ({right_rate:.3g} ev/s) is "
                f"≥{SPARSE_LEFT_RATIO}x sparser than left "
                f"({left_rate:.3g} ev/s); swapped, with Permute restoring "
                "the canonical composition"
            )
            return Permute(swapped, order)

        root = rewrite(plan.root)
        if not swaps:
            return RuleDecision.decline(
                "no commutative join with a measurably sparser right side",
                alternatives,
            )
        return RuleDecision.fire(
            dc_replace(plan, root=root), "; ".join(swaps), alternatives
        )


class ChooseIntervalWindows(Rule):
    """O1: realize a join with interval windows instead of sliding ones.

    Fires per join, when the left input is sparse relative to the right
    (content-based windows are created per left event) or when W/slide
    overlap is heavy (sliding windows recompute each pair once per
    overlapping window). Thresholds are shared with the advisor. Output
    is unchanged — O1 only changes *how* the window extent is realized —
    so the RA70x invariants apply. Declines entirely in the
    ``emit_duplicates`` study mode, whose raw duplicate emission is
    exactly what O1 removes.
    """

    name = "choose-interval-windows"
    description = "O1: interval joins where sliding windows pay overhead"

    def apply(self, plan: LogicalPlan, ctx: OptimizeContext) -> RuleDecision:
        if ctx.options.emit_duplicates:
            return RuleDecision.decline(
                "emit_duplicates study mode requires sliding windows "
                "(O1 removes the duplicates being studied)"
            )
        flips: list[str] = []
        alternatives: list[str] = []

        def rewrite(node: PlanNode) -> PlanNode:
            node = _rebuild(node, rewrite)
            if not (
                isinstance(node, WindowJoin)
                and node.strategy is WindowStrategy.SLIDING
            ):
                return node
            windows_per_event = -(-node.window_size // max(node.window_slide, 1))
            rates_known = subtree_rate_known(
                node.left, ctx.model
            ) and subtree_rate_known(node.right, ctx.model)
            if rates_known:
                left_rate = subtree_out_rate(node.left, ctx.model)
                right_rate = subtree_out_rate(node.right, ctx.model)
                if left_rate * SPARSE_LEFT_RATIO <= right_rate:
                    flips.append(
                        f"{node.label()}: left input ({left_rate:.3g} ev/s) "
                        f"sparse vs right ({right_rate:.3g} ev/s); interval "
                        "windows are created per left event (Section 4.3.1)"
                    )
                    return dc_replace(node, strategy=WindowStrategy.INTERVAL)
            if windows_per_event >= MANY_WINDOWS_THRESHOLD:
                flips.append(
                    f"{node.label()}: W/slide = {windows_per_event} "
                    "overlapping windows per event; interval windows avoid "
                    "the duplicated pair computation"
                )
                return dc_replace(node, strategy=WindowStrategy.INTERVAL)
            alternatives.append(
                f"{node.label()}: interval rejected — "
                + (
                    "left input is not the sparse side and "
                    if rates_known
                    else "stream rates unknown and "
                )
                + f"W/slide = {windows_per_event} < {MANY_WINDOWS_THRESHOLD}"
            )
            return node

        root = rewrite(plan.root)
        if not flips:
            return RuleDecision.decline(
                "no sliding-window join clears the O1 thresholds", alternatives
            )
        return RuleDecision.fire(
            dc_replace(plan, root=root), "; ".join(flips), alternatives
        )


class AnnotateFusionSegments(Rule):
    """Record the stateless stage runs the batch engine fuses.

    The batch engine compiles adjacent stateless operators (scan
    filters, schema aligns, permutes, post-filters) into single fused
    passes; this rule computes those maximal runs at plan level and
    writes them into the plan's notes, making the fusion boundary
    placement visible in ``repro explain`` and auditable in metrics
    reports. Annotation only — the plan tree is untouched.
    """

    name = "annotate-fusion-segments"
    description = "make batch-engine fusion-segment boundaries explicit"

    def apply(self, plan: LogicalPlan, ctx: OptimizeContext) -> RuleDecision:
        segments: list[list[str]] = []

        def visit(node: PlanNode, run: list[str]) -> None:
            if isinstance(node, (SchemaAlign, Permute, PostFilter)):
                visit(node.inputs()[0], run + [node.label()])
                return
            if isinstance(node, StreamScan):
                if node.filters:
                    run = run + [node.label()]
                if len(run) >= 2:
                    segments.append(run)
                return
            # Stateful boundary: flush the run, restart below.
            if len(run) >= 2:
                segments.append(run)
            for child in node.inputs():
                visit(child, [])

        visit(plan.root, [])
        if not segments:
            return RuleDecision.decline(
                "no run of adjacent stateless stages to fuse"
            )
        notes = tuple(
            "fusion segment: " + " ∘ ".join(reversed(run)) + " (one batched pass)"
            for run in segments
        )
        return RuleDecision.fire(
            dc_replace(plan, notes=plan.notes + notes),
            f"marked {len(segments)} fusion segment(s) for the batch engine",
        )


class AnnotateCompiledSegments(Rule):
    """Record what the batch engine runs for each scan filter and join.

    A scan filter runs as one generated comprehension over the batch
    when every conjunct is in the closed predicate AST
    (:func:`repro.sea.predicates.row_filter_source`, the text
    :func:`~repro.sea.predicates.compile_mask` executes when the plan is
    lowered — nothing is compiled here); an opaque predicate node keeps
    the filter calling its tree-walking callable per event. This rule
    writes either into the plan's notes, a compiled filter with the
    cardinality interval of its scan as the justification — a wide
    survivor interval means the pass saves many per-event calls.
    Annotation only — the plan tree is untouched.

    Each binary join gets one note saying what the batch engine will run
    for it: an interval join its generated probe (input shapes, how many
    residual conjuncts are inlined, or which one keeps the probe calling
    ``theta()`` and why — :func:`repro.mapping.translator.probe_plan`, the
    same facts the lowered operator compiles from); a sliding join the
    interpreted per-window pair loop with its ``W/slide`` re-test factor,
    the paper's cost for overlapping windows.
    """

    name = "annotate-compiled-segments"
    description = "make generated-filter and join pair-loop placement explicit"

    def apply(self, plan: LogicalPlan, ctx: OptimizeContext) -> RuleDecision:
        from repro.analysis.cardinality import interpret_node
        from repro.mapping.translator import probe_plan
        from repro.sea.predicates import row_filter_source

        notes: list[str] = []
        cache: dict = {}
        ordinals = join_ordinals(plan.root)
        for node in plan.root.walk():
            if isinstance(node, WindowJoin):
                if node.strategy is WindowStrategy.INTERVAL:
                    notes.append(f"probe: {node.label()} {probe_plan(node).describe()}")
                else:
                    notes.append(
                        f"sliding: {node.label()} interpreted per-window pair "
                        f"loop (W/slide = {-(-node.window_size // node.window_slide)})"
                    )
                continue
            if not (isinstance(node, StreamScan) and node.filters):
                continue
            opaque = next(
                (p for p in node.filters if row_filter_source([p]) is None), None
            )
            if opaque is not None:
                notes.append(
                    f"interpreted filter: {node.label()} "
                    f"({opaque.render()}: not in the closed predicate AST)"
                )
                continue
            bounds = interpret_node(node, ctx.model, cache, ordinals)
            rate = bounds.out_rate
            survivors = (
                f"survivors <= {rate.hi:.3g}/s" if rate.hi != float("inf")
                else "survivor rate unknown"
            )
            notes.append(
                f"compiled filter: {node.label()} -> one generated "
                f"pass ({len(node.filters)} conjunct(s), {survivors})"
            )
        filters = [n for n in notes if n.startswith("compiled filter")]
        joins = [n for n in notes if n.startswith(("probe", "sliding"))]
        if not filters and not joins:
            return RuleDecision.decline("no compiled scan filter and no binary join")
        return RuleDecision.fire(
            dc_replace(plan, notes=plan.notes + tuple(notes)),
            f"marked {len(filters)} compiled filter(s) and {len(joins)} "
            "join pair loop(s) for the batch engine",
        )


#: The compiler's rule sequence, applied in this order by
#: ``optimize_plan``. Order matters: pushdown before reordering (theta
#: placement affects join selectivity estimates), reordering before the
#: O1 choice (the swap may create the sparse-left shape O1 wants).
DEFAULT_RULES: tuple[Rule, ...] = (
    OrderScanFilters(),
    PushResidualPredicates(),
    ReorderCommutativeJoin(),
    ChooseIntervalWindows(),
    AnnotateFusionSegments(),
    AnnotateCompiledSegments(),
)

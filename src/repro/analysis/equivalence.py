"""Plan-vs-plan equivalence invariants for optimizer rewrites (RA70x).

The rewrite engine (:mod:`repro.mapping.optimizer.rewrite`) promises
that its rules keep the optimized plan *byte-identical in output* to the
phase-1 plan. Full semantic equivalence of stream plans is undecidable,
so this verifier checks the structural invariants that every legal
rewrite in our rule inventory maintains — and that every known way to
get the rewrite wrong violates:

* **RA701 — output composition.** The root's positional alias tuple must
  be exactly equal: matches are composed of the same events in the same
  order, hence the same ``dedup_key``. (This is why the commutative-join
  reorder must insert a ``Permute`` above the swapped join.)
* **RA702 — predicate multiset.** Every WHERE conjunct must survive,
  merely *relocated* (scan pushdown order, theta-vs-postfilter position,
  equi-key orientation); none dropped, none invented. Compared as an
  order- and orientation-insensitive multiset of rendered predicates.
* **RA703 — window extents.** The multiset of ``(size, slide)`` window
  extents across stateful operators is preserved: a rewrite may change
  *how* a window is realized (sliding vs interval, O1) but never *what*
  time span it covers.

The engine runs this check after every rule that fires; there is no
exemption. Output-changing mappings (the approximate O2 count) are the
caller's translation options, never a rewrite.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.diagnostics import Diagnostic, error
from repro.mapping.optimizer.ir import (
    CountAggregate,
    LogicalPlan,
    MultiWayJoin,
    NseqPrepare,
    PlanNode,
    PostFilter,
    StreamScan,
    WindowJoin,
)


def _predicate_multiset(root: PlanNode) -> Counter[str]:
    """Every predicate in the plan, rendered, orientation-normalized."""
    counts: Counter[str] = Counter()
    for node in root.walk():
        if isinstance(node, StreamScan):
            for pred in node.filters:
                counts[pred.render()] += 1
        elif isinstance(node, WindowJoin):
            for pred in node.extra_theta:
                counts[pred.render()] += 1
            for left, right in node.equi_keys:
                # A swapped join renders its keys with the sides flipped;
                # "a.id = b.id" and "b.id = a.id" are the same predicate.
                sides = sorted([f"{left[0]}.{left[1]}", f"{right[0]}.{right[1]}"])
                counts[f"{sides[0]} = {sides[1]}"] += 1
        elif isinstance(node, MultiWayJoin):
            for pred in node.extra_theta:
                counts[pred.render()] += 1
        elif isinstance(node, PostFilter):
            for pred in node.predicates:
                counts[pred.render()] += 1
    return counts


def _window_multiset(root: PlanNode) -> Counter[tuple[str, int, int]]:
    """The ``(operator family, size, slide)`` extents of stateful nodes.

    The family tag keeps a rewrite from trading a join window for an
    aggregate window of the same extent unnoticed; physical strategy
    (sliding vs interval) is deliberately NOT part of the key — that is
    exactly the freedom O1 exercises.
    """
    counts: Counter[tuple[str, int, int]] = Counter()
    for node in root.walk():
        if isinstance(node, (WindowJoin, MultiWayJoin)):
            counts[("join", node.window_size, node.window_slide)] += 1
        elif isinstance(node, CountAggregate):
            counts[("aggregate", node.window_size, node.window_slide)] += 1
        elif isinstance(node, NseqPrepare):
            counts[("nseq", node.window_size, 0)] += 1
    return counts


def _diff(label: str, before: Counter, after: Counter) -> str:
    lost = before - after
    gained = after - before
    parts = []
    if lost:
        parts.append("lost " + ", ".join(f"{k!r}" for k in sorted(map(str, lost))))
    if gained:
        parts.append("gained " + ", ".join(f"{k!r}" for k in sorted(map(str, gained))))
    return f"{label}: " + "; ".join(parts)


def check_rewrite_invariants(
    before: LogicalPlan, after: LogicalPlan
) -> list[Diagnostic]:
    """The RA70x invariants between a plan and its rewritten form.

    Returns one error-level diagnostic per violated invariant (empty
    list = the rewrite is structurally output-preserving). Called by the
    rewrite engine after every fired output-preserving rule, and by the
    analyzer's trace pass to re-verify a finished optimization run.
    """
    diagnostics: list[Diagnostic] = []

    if before.root.aliases != after.root.aliases:
        diagnostics.append(
            error(
                "RA701",
                f"output composition changed: {before.root.aliases} -> "
                f"{after.root.aliases}; matches would carry different "
                "constituent orders (different dedup keys)",
                where=after.pattern_name,
            )
        )

    preds_before = _predicate_multiset(before.root)
    preds_after = _predicate_multiset(after.root)
    if preds_before != preds_after:
        diagnostics.append(
            error(
                "RA702",
                _diff("predicate multiset changed", preds_before, preds_after),
                where=after.pattern_name,
            )
        )

    windows_before = _window_multiset(before.root)
    windows_after = _window_multiset(after.root)
    if windows_before != windows_after:
        diagnostics.append(
            error(
                "RA703",
                _diff("window extents changed", windows_before, windows_after),
                where=after.pattern_name,
            )
        )
    return diagnostics

"""Automated optimization selection — the paper's future-work item.

Section 7 of the paper: "collecting information on data and pattern
characteristics such as frequency and selectivity enables the automated
application of the proposed optimization opportunities." This module
implements that advisor: given a pattern and per-stream statistics it
recommends a :class:`TranslationOptions` configuration, with one
human-readable reason per decision.

The advisor consumes the compiler's IR: phase 1
(:func:`~repro.mapping.optimizer.build.build_plan`) records
:class:`~repro.mapping.optimizer.ir.PlanFeatures` — root kind, stream
order, iteration specs, O3 candidates — and every decision below reads
those features instead of re-traversing the pattern AST. Thresholds are
shared with the rewrite rules (:mod:`repro.mapping.optimizer.cost`), so
the advisor and the optimizer can never disagree about what "sparse"
means.

Decision rules distilled from the paper's evaluation (Sections 4.3,
5.2.1, 5.2.3):

* **O3** whenever the pattern carries key-match equalities (or the caller
  names a partition attribute): Equi Joins unlock parallelism and are
  "always preferable as join keys".
* **O2** for iterations — the aggregation mapping won every iteration
  benchmark; mandatory for unbounded (Kleene+) iterations. A caller who
  needs exact output sets ``iteration_strategy="exact"`` instead.
* **O1** (interval joins) when the pattern's first stream is noticeably
  *less* frequent than the later ones (content-based windows are created
  per left event), or when the window is large relative to the slide
  (many concurrent sliding windows); sliding windows when the left stream
  is the busiest.

Operand order of commutative conjunctions is not an option: the plan
optimizer's cost-based ``ReorderCommutativeJoin`` rule puts the sparsest
stream on the window-driving side and restores the output order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.asp.datamodel import TypeRegistry
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.build import build_plan
from repro.mapping.optimizer.cost import (
    MANY_WINDOWS_THRESHOLD,
    SPARSE_LEFT_RATIO,
)
from repro.mapping.optimizer.ir import WindowStrategy
from repro.sea.ast import Pattern

__all__ = [
    "MANY_WINDOWS_THRESHOLD",
    "Recommendation",
    "SPARSE_LEFT_RATIO",
    "StreamStatistics",
    "recommend_options",
    "statistics_from_streams",
]


@dataclass(frozen=True)
class StreamStatistics:
    """Observed or estimated characteristics of one event type."""

    event_type: str
    #: Mean events per second across all producers of the type.
    rate_eps: float
    #: Fraction of events surviving the pattern's pushdown filters.
    filter_selectivity: float = 1.0

    @property
    def filtered_rate_eps(self) -> float:
        return self.rate_eps * self.filter_selectivity


@dataclass
class Recommendation:
    """The advisor's output: options plus the reasoning trail."""

    options: TranslationOptions
    reasons: list[str] = field(default_factory=list)

    def explain(self) -> str:
        lines = [f"recommended configuration: {self.options.label()}"]
        lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def recommend_options(
    pattern: Pattern,
    statistics: dict[str, StreamStatistics] | None = None,
    registry: TypeRegistry | None = None,
    partition_attribute: str | None = None,
) -> Recommendation:
    """Derive translation options from pattern + stream characteristics.

    ``statistics`` maps event types to :class:`StreamStatistics`; missing
    statistics fall back to the registry's ``mean_period_ms`` metadata,
    and absent both, the corresponding heuristics stay neutral.
    """
    # Phase 1 of the compiler records everything shape-related once; the
    # advisor reads the features instead of walking the AST again.
    features = build_plan(pattern, TranslationOptions()).features
    assert features is not None  # build_plan always records features
    statistics = dict(statistics or {})
    reasons: list[str] = []
    options = TranslationOptions()

    def rate_of(event_type: str) -> float | None:
        stat = statistics.get(event_type)
        if stat is not None:
            return stat.filtered_rate_eps
        if registry is not None and event_type in registry:
            period = registry.get(event_type).mean_period_ms
            if period:
                return 1000.0 / period
        return None

    # -- O3: key partitioning ------------------------------------------------
    if partition_attribute is not None:
        options = replace(options, partition_attribute=partition_attribute)
        reasons.append(
            f"O3: partitioning by explicit attribute '{partition_attribute}'"
        )
        # Static schema check (repro.analysis): a partition attribute no
        # stream carries would fail the RA402 pre-flight at translate time.
        from repro.analysis.schema import scan_schema

        for event_type in sorted(set(features.event_types)):
            info = scan_schema(event_type, registry)
            if info.closed and not info.resolves(partition_attribute):
                reasons.append(
                    f"warning: '{partition_attribute}' is missing from the "
                    f"declared schema of '{event_type}' (RA402); O3 would be "
                    "rejected by the static pre-flight"
                )
    elif features.equi_predicates:
        rendered = ", ".join(features.equi_predicates)
        reasons.append(
            f"O3: key-match predicates present ({rendered}); Equi Joins "
            "partition by key and parallelize (Section 4.3.3)"
        )
        # Phase 1 keys joins on WHERE equalities — nothing else to flip.

    # -- O2: aggregation-based iterations -----------------------------------------
    if features.iterations:
        options = replace(options, iteration_strategy="aggregate")
        reasons.append(
            "O2: unbounded (Kleene+) iteration has no join mapping "
            "(Table 1); the windowed count is required"
            if features.has_unbounded_iteration
            else "O2: aggregations dominated every iteration benchmark "
            "(Sections 5.2.1-5.2.3); output is approximate "
            "(one tuple per window)"
        )

    # -- O1: interval vs sliding windows ----------------------------------------------
    joins_needed = features.joins_streams or (
        features.iterations and options.iteration_strategy == "join"
    )
    if joins_needed:
        first = features.first_event_type
        later = [
            rate
            for t in features.later_event_types
            if (rate := rate_of(t)) is not None
        ]
        first_rate = rate_of(first) if first else None
        windows_per_event = pattern.window.windows_per_event()
        if first_rate is not None and later and first_rate * SPARSE_LEFT_RATIO <= max(later):
            options = replace(options, join_strategy=WindowStrategy.INTERVAL)
            reasons.append(
                f"O1: first stream '{first}' ({first_rate:.3g} ev/s) is sparse "
                f"relative to its partners (max {max(later):.3g} ev/s); "
                "content-based windows cut window-creation cost (Section 4.3.1)"
            )
        elif windows_per_event >= MANY_WINDOWS_THRESHOLD:
            options = replace(options, join_strategy=WindowStrategy.INTERVAL)
            reasons.append(
                f"O1: W/slide = {windows_per_event} concurrent windows per "
                "event; interval joins avoid the duplicate computations of "
                "heavily overlapping sliding windows"
            )
        elif first_rate is not None and later and first_rate > max(later) * SPARSE_LEFT_RATIO:
            reasons.append(
                f"sliding windows kept: first stream '{first}' is the most "
                "frequent, so per-left-event interval windows would be "
                "created at the highest rate (Section 4.3.1)"
            )

    if not reasons:
        reasons.append("no optimization opportunity detected; plain FASP mapping")
    return Recommendation(options=options, reasons=reasons)


def statistics_from_streams(streams: dict[str, list]) -> dict[str, StreamStatistics]:
    """Estimate per-type rates from concrete event lists."""
    out: dict[str, StreamStatistics] = {}
    for event_type, events in streams.items():
        if len(events) < 2:
            out[event_type] = StreamStatistics(event_type, rate_eps=0.0)
            continue
        span_ms = events[-1].ts - events[0].ts
        rate = len(events) / (span_ms / 1000.0) if span_ms > 0 else 0.0
        out[event_type] = StreamStatistics(event_type, rate_eps=rate)
    return out

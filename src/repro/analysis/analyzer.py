"""The multi-pass static analyzer: one entry point over pattern, logical
plan and physical dataflow.

``analyze_queries`` takes the queries of one compile result and is what
the compile pipeline (:func:`repro.mapping.translator.compile_patterns`)
runs as its opt-out pre-flight; ``analyze_query`` is its one-query
spelling (what ``repro lint`` renders). No pass executes the dataflow —
everything is derived from the pattern AST, the plan tree, operator
metadata and UDF source code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.analysis.cardinality import plan_cardinality_diagnostics
from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.partition import (
    plan_partition_diagnostics,
    shardability_diagnostics,
)
from repro.analysis.patterncheck import pattern_diagnostics
from repro.analysis.purity import flow_purity_diagnostics, plan_purity_diagnostics
from repro.analysis.recovery import flow_recovery_diagnostics
from repro.analysis.schema import schema_diagnostics
from repro.analysis.state import flow_state_diagnostics, plan_state_diagnostics
from repro.analysis.structure import structural_diagnostics
from repro.analysis.timing import flow_time_diagnostics, plan_time_diagnostics
from repro.asp.datamodel import TypeRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.mapping.translator import TranslatedQuery


def analyze_queries(
    queries: Sequence["TranslatedQuery"],
    *,
    registry: Optional[TypeRegistry] = None,
    min_inter_event_gap: Optional[int] = None,
    max_out_of_orderness: int = 0,
    prove_shardable: Optional[bool] = None,
    require_sinks: bool = False,
    state_budget: Optional[float] = None,
) -> list[AnalysisReport]:
    """Analyze the queries of one compile result; one report per query.

    Pattern- and plan-level passes run per query, on the plan that was
    lowered. Flow-level passes run once, on the dataflow the queries
    share — the one that executes — and every report carries their
    findings: a defect of the shared dataflow is a defect of each query
    running in it. An O3 plan claims key-parallel safety, so the RA40x
    proof runs for it unless ``prove_shardable`` says otherwise; its
    flow half (RA401) covers only the operators upstream of that query's
    output, so an unkeyed neighbour in the same dataflow cannot fail it.
    """
    flow = queries[0].env.flow
    shared = structural_diagnostics(flow, require_sinks=require_sinks)
    shared.extend(flow_time_diagnostics(flow, max_out_of_orderness))
    shared.extend(flow_state_diagnostics(flow))
    shared.extend(flow_purity_diagnostics(flow))
    shared.extend(flow_recovery_diagnostics(flow))
    reports = []
    for query in queries:
        pattern, plan, options = query.pattern, query.plan, query.options
        keyed = (
            options.partition_attribute is not None
            if prove_shardable is None
            else prove_shardable
        )
        diags = pattern_diagnostics(pattern, registry, min_inter_event_gap)
        diags.extend(schema_diagnostics(plan, pattern, registry, query.sources))
        diags.extend(plan_time_diagnostics(plan, min_inter_event_gap))
        diags.extend(
            plan_state_diagnostics(plan, pattern, options.iteration_strategy)
        )
        diags.extend(
            plan_partition_diagnostics(
                plan,
                options.partition_attribute,
                registry,
                query.sources,
                prove_shardable=keyed,
            )
        )
        diags.extend(plan_purity_diagnostics(plan))
        diags.extend(
            plan_cardinality_diagnostics(
                plan, registry=registry, state_budget=state_budget
            )
        )
        diags.extend(shared)
        if keyed:
            diags.extend(shardability_diagnostics(flow, query.output._node_id))
        reports.append(AnalysisReport(target=pattern.name, diagnostics=tuple(diags)))
    return reports


def analyze_query(query: "TranslatedQuery", **options: Any) -> AnalysisReport:
    """Analyze one translated query end to end (pattern + plan + dataflow).

    :func:`analyze_queries` of one, with the same keyword options.
    """
    return analyze_queries([query], **options)[0]

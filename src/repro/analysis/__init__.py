"""Static plan verifier for the CEP-to-ASP mapping.

A multi-pass analyzer that proves properties of a translated query
*without executing it*: schema inference (RA1xx), time & watermark
consistency (RA2xx), state boundedness (RA3xx), partition safety — the
O3 proof (RA4xx) — and UDF purity via AST linting (RA5xx), plus the
absorbed structural (RA0xx) and pattern well-formedness (RA01x) checks.
On top of the physical checks sit three whole-pipeline passes:
cardinality/state abstract interpretation over the logical-plan IR
(RA80x), the multi-query sharability prover (RA81x) and the concurrency
self-lint over the service runtime's own source (RA82x).

Entry points: :func:`analyze_queries` (what the compile pipeline
pre-flights: one report per query of a compile result, flow-level passes
run once) and :func:`analyze_query` (its one-query spelling, what
``repro lint`` renders);
:func:`prove_sharability` for co-submissions and
:func:`lint_runtime_sources` for ``repro lint --self``.
"""

from repro.analysis.analyzer import analyze_queries, analyze_query
from repro.analysis.cardinality import (
    CardinalityBounds,
    Interval,
    NodeBounds,
    plan_bounds,
    plan_cardinality_diagnostics,
)
from repro.analysis.concurrency import (
    lint_runtime_sources,
    source_concurrency_diagnostics,
)
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    error,
    merge_reports,
    warning,
)
from repro.analysis.partition import shardability_diagnostics
from repro.analysis.patterncheck import pattern_diagnostics
from repro.analysis.purity import callable_diagnostics
from repro.analysis.schema import AliasSchema, alias_scopes, scan_schema
from repro.analysis.sharing import SharedPrefix, SharingReport, prove_sharability
from repro.analysis.structure import structural_diagnostics

__all__ = [
    "CODES",
    "AliasSchema",
    "AnalysisReport",
    "CardinalityBounds",
    "Diagnostic",
    "Interval",
    "NodeBounds",
    "Severity",
    "SharedPrefix",
    "SharingReport",
    "alias_scopes",
    "analyze_queries",
    "analyze_query",
    "callable_diagnostics",
    "error",
    "lint_runtime_sources",
    "merge_reports",
    "pattern_diagnostics",
    "plan_bounds",
    "plan_cardinality_diagnostics",
    "prove_sharability",
    "scan_schema",
    "shardability_diagnostics",
    "source_concurrency_diagnostics",
    "structural_diagnostics",
    "warning",
]

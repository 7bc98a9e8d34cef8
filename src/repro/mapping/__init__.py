"""The paper's core contribution: the general CEP-to-ASP operator mapping.

One compile pipeline (:func:`~repro.mapping.translator.compile_patterns`)
turns SEA patterns into an executable ASP dataflow via explicit phases:
pattern AST → logical plan IR (:mod:`repro.mapping.optimizer.ir`) →
optional rule-based rewrites (:mod:`repro.mapping.optimizer.rules`) →
sharability proof → physical dataflow → static verification;
``translate`` is its spelling for one pattern, ``translate_many`` for a
batch sharing scans. The rewrites
cover the paper's optimizations O1 (interval joins), O2
(aggregation-based iterations) and O3 (equi-join partitioning) plus
cost-driven join commutation; cost models live in
:mod:`repro.mapping.optimizer.cost`.
"""

from repro.mapping.advisor import (
    Recommendation,
    StreamStatistics,
    recommend_options,
    statistics_from_streams,
)
from repro.mapping.multiquery import MultiQuery, translate_many
from repro.mapping.optimizations import TranslationOptions, check_applicability
from repro.mapping.optimizer import (
    OPTIMIZE_MODES,
    build_plan,
    optimize_plan,
    resolve_cost_model,
)
from repro.mapping.optimizer.ir import (
    CountAggregate,
    JoinKind,
    LogicalPlan,
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
from repro.mapping.sql import render_sql
from repro.mapping.translator import TranslatedQuery, compile_patterns, translate

__all__ = [
    "CountAggregate", "JoinKind", "LogicalPlan", "MultiQuery", "NseqPrepare", "OPTIMIZE_MODES", "Permute", "PlanNode", "Recommendation", "StreamStatistics",
    "PostFilter", "SchemaAlign", "StreamScan", "TranslatedQuery",
    "TranslationOptions", "UnionAll", "WindowJoin", "WindowStrategy",
    "build_plan", "check_applicability", "compile_patterns", "optimize_plan", "recommend_options", "render_sql", "resolve_cost_model", "statistics_from_streams", "translate", "translate_many",
]

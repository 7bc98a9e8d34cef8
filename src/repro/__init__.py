"""repro — CEP on stream processing systems, reproduced from scratch.

A complete Python reproduction of *"Bridging the Gap: Complex Event
Processing on Stream Processing Systems"* (Ziehn, Grulich, Zeuch, Markl —
EDBT 2024): the general mapping of CEP patterns onto ASP operators,
together with every substrate it needs — a push-based ASP dataflow
engine, a FlinkCEP-analog NFA engine, the SEA pattern algebra with a
declarative parser and executable formal semantics, synthetic sensor
workloads, and a sharded execution backend for key-partitioned scale-out.

Quick start::

    from repro import parse_pattern, translate, TranslationOptions
    from repro.asp.operators.source import ListSource

    pattern = parse_pattern(
        "PATTERN SEQ(Q q1, V v1) WHERE q1.value > 80 AND v1.value < 30 "
        "WITHIN 15 MINUTES SLIDE 1 MINUTE"
    )
    query = translate(pattern, sources, TranslationOptions.o1())
    query.execute()
    for match in query.matches():
        ...

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.analysis import AnalysisReport, Diagnostic, Severity, analyze_query
from repro.asp.datamodel import ComplexEvent, Event, Schema, TypeRegistry
from repro.asp.operators.window import IntervalBounds, WindowSpec, sliding, tumbling
from repro.asp.stream import StreamEnvironment
from repro.asp.time import MS_PER_MINUTE, hours, minutes, seconds
from repro.cep.operator import CepOperator
from repro.cep.pattern_api import CepPatternBuilder, from_sea_pattern
from repro.cep.policies import STAM, STNM, STRICT, SelectionPolicy
from repro.errors import (
    ExecutionError,
    MemoryExhaustedError,
    PatternSyntaxError,
    PatternValidationError,
    ReproError,
    ShardabilityError,
    StaticAnalysisError,
    TranslationError,
)
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer import build_plan
from repro.mapping.sql import render_sql
from repro.mapping.translator import TranslatedQuery, translate
from repro.runtime.harness import run_fasp, run_fcep
from repro.sea.ast import Pattern, conj, disj, iteration, nseq, ref, seq
from repro.sea.parser import parse_pattern
from repro.sea.semantics import evaluate_pattern
from repro.sea.validation import validate_pattern

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport", "CepOperator", "CepPatternBuilder",
    "ComplexEvent", "Diagnostic", "Event", "ExecutionError",
    "IntervalBounds", "MS_PER_MINUTE", "MemoryExhaustedError", "Pattern",
    "PatternSyntaxError", "PatternValidationError", "ReproError", "STAM",
    "STNM", "STRICT", "Schema", "SelectionPolicy", "Severity",
    "ShardabilityError", "StaticAnalysisError", "StreamEnvironment",
    "TranslatedQuery", "TranslationError", "TranslationOptions",
    "TypeRegistry", "WindowSpec", "analyze_query", "build_plan", "conj",
    "disj", "evaluate_pattern", "from_sea_pattern", "hours", "iteration",
    "minutes", "nseq", "parse_pattern", "ref", "render_sql", "run_fasp",
    "run_fcep", "seconds", "seq", "sliding", "translate", "tumbling",
    "validate_pattern",
]

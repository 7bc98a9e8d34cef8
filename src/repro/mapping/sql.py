"""SQL rendering of mapped queries — the paper's Listings 4, 6 and 8.

``render_sql`` produces the declarative view of a logical plan in the
paper's notation::

    SELECT *
    FROM Stream T1, Stream T2, Stream T3
    WHERE T1.ts < T2.ts AND T2.ts < T3.ts AND <predicates>
    WINDOW [Range W, s]

NSEQ renders the ``NOT EXISTS`` sub-query of Listing 6; O2 renders a
``GROUP BY window`` aggregation with a ``HAVING count >= m`` clause. The
rendering is for documentation and plan inspection — execution goes
through :mod:`repro.mapping.translator`.
"""

from __future__ import annotations

from repro.asp.time import MS_PER_MINUTE
from repro.mapping.optimizer.ir import (
    CountAggregate,
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


def _fmt_window(size: int, slide: int) -> str:
    if size % MS_PER_MINUTE == 0 and slide % MS_PER_MINUTE == 0:
        return f"Window [Range {size // MS_PER_MINUTE} MIN, Slide {slide // MS_PER_MINUTE} MIN]"
    return f"Window [Range {size} MS, Slide {slide} MS]"


def _collect(node: PlanNode, tables: list[str], where: list[str], notes: list[str]) -> None:
    if isinstance(node, StreamScan):
        tables.append(f"Stream {node.event_type} {node.alias}")
        for pred in node.filters:
            where.append(pred.render())
        return
    if isinstance(node, SchemaAlign):
        _collect(node.input, tables, where, notes)
        notes.append(f"map: align schema to {node.target_type}")
        return
    if isinstance(node, Permute):
        # Join commutation (optimizer) swaps execution order only; the
        # declarative SELECT lists columns in canonical pattern order, so
        # the permutation is invisible here beyond a note.
        _collect(node.input, tables, where, notes)
        notes.append(
            "optimizer: join inputs commuted for execution; output restored "
            "to pattern order"
        )
        return
    if isinstance(node, PostFilter):
        _collect(node.input, tables, where, notes)
        for pred in node.predicates:
            where.append(pred.render())
        return
    if isinstance(node, WindowJoin):
        _collect(node.left, tables, where, notes)
        _collect(node.right, tables, where, notes)
        if node.ordered:
            left_alias = node.left.aliases[-1]
            right_alias = node.right.aliases[0]
            where.append(f"{left_alias}.ts < {right_alias}.ts")
        for (l_alias, l_attr), (r_alias, r_attr) in node.equi_keys:
            where.append(f"{l_alias}.{l_attr} = {r_alias}.{r_attr}")
        for pred in node.extra_theta:
            where.append(pred.render())
        if node.consecutive_condition is not None:
            notes.append("iteration inter-event condition applied as join theta")
        if node.strategy is WindowStrategy.INTERVAL:
            notes.append("O1: executed as Interval Join (bounds relative to left events)")
        return
    if isinstance(node, NseqPrepare):
        tables.append(f"Stream {node.first.event_type} {node.first.alias}")
        for pred in node.first.filters:
            where.append(pred.render())
        blocker_preds = " AND ".join(p.render() for p in node.negated.filters)
        blocker_clause = f" AND {blocker_preds}" if blocker_preds else ""
        where.append(
            "NOT EXISTS (SELECT * FROM Stream "
            f"{node.negated.event_type} {node.negated.alias} WHERE "
            f"{node.first.alias}.ts < {node.negated.alias}.ts AND "
            f"{node.negated.alias}.ts < <next>.ts{blocker_clause})"
        )
        notes.append(
            "NSEQ executed as UDF(T1 ∪ T2) attaching a_ts, then the ordered "
            "join adds the selection a_ts >= e3.ts (Listing 6 equivalent)"
        )
        return
    if isinstance(node, MultiWayJoin):
        for scan in node.parts:
            tables.append(f"Stream {scan.event_type} {scan.alias}")
            for pred in scan.filters:
                where.append(pred.render())
        if node.ordered:
            for a, b in zip(node.aliases, node.aliases[1:]):
                where.append(f"{a}.ts < {b}.ts")
        if node.key_attribute:
            for a, b in zip(node.aliases, node.aliases[1:]):
                where.append(f"{a}.{node.key_attribute} = {b}.{node.key_attribute}")
        for pred in node.extra_theta:
            where.append(pred.render())
        notes.append(
            "single n-ary Window Join (Beam multi-way form of Listing 8)"
        )
        return
    if isinstance(node, UnionAll):
        parts = []
        for part in node.parts:
            sub_tables: list[str] = []
            sub_where: list[str] = []
            _collect(part, sub_tables, sub_where, notes)
            clause = f"SELECT * FROM {', '.join(sub_tables)}"
            if sub_where:
                clause += f" WHERE {' AND '.join(sub_where)}"
            parts.append(clause)
        tables.append("(" + " UNION ALL ".join(parts) + ")")
        return
    if isinstance(node, CountAggregate):
        inner: list[str] = []
        inner_where: list[str] = []
        _collect(node.input, inner, inner_where, notes)
        group = f" GROUP BY {node.key_attribute}, window" if node.key_attribute else " GROUP BY window"
        clause = (
            f"(SELECT count(*) AS n FROM {', '.join(inner)}"
            + (f" WHERE {' AND '.join(inner_where)}" if inner_where else "")
            + group
            + f" HAVING n >= {node.minimum})"
        )
        tables.append(clause)
        notes.append("O2: iteration approximated by windowed count aggregation")
        return
    if isinstance(node, KleeneIterate):
        inner: list[str] = []
        inner_where: list[str] = []
        _collect(node.input, inner, inner_where, notes)
        arity = f"{node.minimum}+" if node.unbounded else str(node.minimum)
        partition = f" PARTITION BY {node.key_attribute}" if node.key_attribute else ""
        clause = (
            f"(SELECT kleene({arity}) FROM {', '.join(inner)}"
            + (f" WHERE {' AND '.join(inner_where)}" if inner_where else "")
            + f"{partition} PER window)"
        )
        tables.append(clause)
        notes.append(
            "exact Kleene iteration: every ts-increasing composition per "
            "window, first-window deduplicated (exact ITER operator)"
        )
        return
    raise TypeError(f"cannot render plan node {node.label()}")


def render_sql(plan: LogicalPlan) -> str:
    """Render a logical plan in the paper's SQL-like query notation."""
    tables: list[str] = []
    where: list[str] = []
    notes: list[str] = []
    _collect(plan.root, tables, where, notes)
    lines = ["SELECT *", "FROM " + ", ".join(tables)]
    if where:
        lines.append("WHERE " + "\n  AND ".join(where))
    lines.append(_fmt_window(plan.window_size, plan.window_slide))
    for note in notes:
        lines.append(f"-- {note}")
    return "\n".join(lines)

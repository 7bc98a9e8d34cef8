"""Schema inference pass (RA1xx): propagate per-alias attribute sets
through the logical plan and resolve every field reference statically.

The base schema of a scan comes from (in order of preference) the type
registry, a sample of the bound :class:`ListSource`'s events, or — when
neither is available — the paper's common sensor schema treated as
*open* (unknown attributes demote to warnings instead of errors, since
the real stream may carry more fields than the default schema lists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.asp.datamodel import Schema, TypeRegistry
from repro.errors import SchemaError
from repro.mapping.optimizer.ir import (
    CountAggregate,
    KleeneIterate,
    LogicalPlan,
    MultiWayJoin,
    NseqPrepare,
    PlanNode,
    PostFilter,
    SchemaAlign,
    StreamScan,
    UnionAll,
    WindowJoin,
)
from repro.sea.ast import Pattern
from repro.sea.predicates import And, Arith, Attr, Compare, Expr, Not, Or, Predicate

#: Attributes every event answers regardless of its declared schema
#: (``Event.__getitem__`` core fields plus the type synonyms).
CORE_ATTRIBUTES = frozenset({"ts", "value", "id", "lat", "lon", "type", "event_type"})

#: The auxiliary timestamp the NSEQ next-occurrence UDF attaches.
AUX_TS = "a_ts"

#: How many source events to sample when inferring a schema dynamically.
_SAMPLE_LIMIT = 8


@dataclass(frozen=True)
class AliasSchema:
    """The statically known attribute set of one bound alias."""

    event_type: str
    attributes: frozenset[str]
    #: Closed schemas reject unknown attributes (error); open schemas may
    #: carry more fields than we can see (unknowns demote to warnings).
    closed: bool

    def resolves(self, attribute: str) -> bool:
        return attribute in CORE_ATTRIBUTES or attribute in self.attributes

    def extended(self, *attributes: str) -> "AliasSchema":
        return AliasSchema(
            self.event_type, self.attributes | frozenset(attributes), self.closed
        )


def scan_schema(
    event_type: str,
    registry: Optional[TypeRegistry] = None,
    sources: Optional[Mapping[str, object]] = None,
) -> AliasSchema:
    """Best statically available schema for one event type."""
    if registry is not None and event_type in registry:
        names = frozenset(registry.get(event_type).schema.names)
        return AliasSchema(event_type, names | CORE_ATTRIBUTES, closed=True)
    source = sources.get(event_type) if sources else None
    events = getattr(source, "_events", None)
    if events:
        sampled_names: set[str] = set()
        sampled = 0
        for event in events[: _SAMPLE_LIMIT * 8]:
            if getattr(event, "event_type", event_type) != event_type:
                continue  # shared physical stream: other types flow here too
            sampled_names.update(event.as_dict().keys())
            sampled += 1
            if sampled >= _SAMPLE_LIMIT:
                break
        if sampled:
            return AliasSchema(
                event_type, frozenset(sampled_names) | CORE_ATTRIBUTES, closed=True
            )
    return AliasSchema(
        event_type,
        frozenset(Schema.sensor_schema().names) | CORE_ATTRIBUTES,
        closed=False,
    )


def alias_scopes(
    node: PlanNode,
    registry: Optional[TypeRegistry] = None,
    sources: Optional[Mapping[str, object]] = None,
) -> dict[str, AliasSchema]:
    """Bottom-up per-alias schema map at ``node``'s output."""
    if isinstance(node, StreamScan):
        return {node.alias: scan_schema(node.event_type, registry, sources)}
    if isinstance(node, SchemaAlign):
        inner = alias_scopes(node.input, registry, sources)
        return {alias: info.extended("unified_type") for alias, info in inner.items()}
    if isinstance(node, UnionAll):
        part_scopes = [alias_scopes(part, registry, sources) for part in node.parts]
        attributes: frozenset[str] = frozenset()
        closed = True
        for scope in part_scopes:
            for info in scope.values():
                attributes |= info.attributes
                closed = closed and info.closed
        types = "|".join(
            info.event_type for scope in part_scopes for info in scope.values()
        )
        return {alias: AliasSchema(types, attributes, closed) for alias in node.aliases}
    if isinstance(node, WindowJoin):
        scope = alias_scopes(node.left, registry, sources)
        scope.update(alias_scopes(node.right, registry, sources))
        return scope
    if isinstance(node, MultiWayJoin):
        scope = {}
        for part in node.parts:
            scope.update(alias_scopes(part, registry, sources))
        return scope
    if isinstance(node, CountAggregate):
        alias = node.aliases[0]
        inner_alias = node.input.aliases[0]
        return {
            alias: AliasSchema(
                f"ITER[{inner_alias}]",
                frozenset({"window_begin", "window_end", "count"}) | CORE_ATTRIBUTES,
                closed=True,
            )
        }
    if isinstance(node, KleeneIterate):
        # Exact compositions carry the inner events verbatim: every
        # indexed repetition alias resolves to the scanned schema.
        inner = alias_scopes(node.input, registry, sources)
        info = next(iter(inner.values()))
        return {alias: info for alias in node.aliases}
    if isinstance(node, NseqPrepare):
        first = alias_scopes(node.first, registry, sources)
        return {alias: info.extended(AUX_TS) for alias, info in first.items()}
    if isinstance(node, PostFilter):
        return alias_scopes(node.input, registry, sources)
    return {alias: scan_schema(alias, registry, sources) for alias in node.aliases}


def _attr_refs(obj: Predicate | Expr) -> Iterator[Attr]:
    if isinstance(obj, Attr):
        yield obj
    elif isinstance(obj, Arith):
        yield from _attr_refs(obj.left)
        yield from _attr_refs(obj.right)
    elif isinstance(obj, Compare):
        yield from _attr_refs(obj.left)
        yield from _attr_refs(obj.right)
    elif isinstance(obj, (And, Or)):
        yield from _attr_refs(obj.left)
        yield from _attr_refs(obj.right)
    elif isinstance(obj, Not):
        yield from _attr_refs(obj.inner)


def _lookup(scope: Mapping[str, AliasSchema], alias: str) -> Optional[AliasSchema]:
    """Scope lookup with the bare-iteration-alias fallback (``v`` refers
    to every indexed repetition ``v[1]..v[m]``)."""
    info = scope.get(alias)
    if info is not None:
        return info
    for bound, bound_info in scope.items():
        if bound.partition("[")[0] == alias:
            return bound_info
    return None


def _check_ref(
    alias: str,
    attribute: str,
    scope: Mapping[str, AliasSchema],
    where: str,
    code: str = "RA101",
) -> Optional[Diagnostic]:
    info = _lookup(scope, alias)
    if info is None:
        return error(
            code, f"reference '{alias}.{attribute}' uses an alias not in scope "
            f"(bound: {sorted(scope)})", where
        )
    if info.resolves(attribute):
        return None
    message = (
        f"attribute '{alias}.{attribute}' does not resolve against the inferred "
        f"schema of '{info.event_type}' (attributes: {sorted(info.attributes)})"
    )
    if info.closed:
        return error(code, message, where)
    return warning(code, message + "; schema is open, cannot prove", where)


def _check_predicate(
    predicate: Predicate,
    scope: Mapping[str, AliasSchema],
    where: str,
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for ref in _attr_refs(predicate):
        diag = _check_ref(ref.alias, ref.attribute, scope, where)
        if diag is not None:
            out.append(diag)
    return out


def _union_diagnostics(
    node: UnionAll,
    registry: Optional[TypeRegistry],
    sources: Optional[Mapping[str, object]],
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    schemas: list[AliasSchema] = []
    for part in node.parts:
        scope = alias_scopes(part, registry, sources)
        schemas.extend(scope.values())
    first = schemas[0] if schemas else None
    for other in schemas[1:]:
        assert first is not None
        if registry is not None and first.event_type in registry and other.event_type in registry:
            a = registry.get(first.event_type).schema
            b = registry.get(other.event_type).schema
            try:
                a.require_union_compatible(b)
            except SchemaError as exc:
                out.append(error("RA102", str(exc), node.label()))
            continue
        if first.closed and other.closed and first.attributes != other.attributes:
            diff = sorted(first.attributes ^ other.attributes)
            out.append(
                error(
                    "RA102",
                    f"union of '{first.event_type}' and '{other.event_type}' is not "
                    f"union compatible; differing attributes: {diff}",
                    node.label(),
                )
            )
    return out


def schema_diagnostics(
    plan: LogicalPlan,
    pattern: Optional[Pattern] = None,
    registry: Optional[TypeRegistry] = None,
    sources: Optional[Mapping[str, object]] = None,
) -> list[Diagnostic]:
    """All RA1xx findings for a logical plan (and its RETURN clause)."""
    out: list[Diagnostic] = []
    for node in plan.root.walk():
        if isinstance(node, StreamScan):
            scope = alias_scopes(node, registry, sources)
            # Pushed-down conjuncts may use a bare iteration alias that
            # differs from the indexed scan alias; they still evaluate
            # against this scan's events, so check attributes only.
            info = next(iter(scope.values()))
            for pred in node.filters:
                for ref in _attr_refs(pred):
                    if not info.resolves(ref.attribute):
                        message = (
                            f"attribute '{ref.alias}.{ref.attribute}' does not resolve "
                            f"against the inferred schema of '{info.event_type}' "
                            f"(attributes: {sorted(info.attributes)})"
                        )
                        if info.closed:
                            out.append(error("RA101", message, node.label()))
                        else:
                            out.append(
                                warning(
                                    "RA101",
                                    message + "; schema is open, cannot prove",
                                    node.label(),
                                )
                            )
        elif isinstance(node, WindowJoin):
            scope = alias_scopes(node, registry, sources)
            for pred in node.extra_theta:
                out.extend(_check_predicate(pred, scope, node.label()))
            for left_key, right_key in node.equi_keys:
                for alias, attribute in (left_key, right_key):
                    diag = _check_ref(alias, attribute, scope, node.label())
                    if diag is not None:
                        out.append(diag)
        elif isinstance(node, MultiWayJoin):
            scope = alias_scopes(node, registry, sources)
            for pred in node.extra_theta:
                out.extend(_check_predicate(pred, scope, node.label()))
        elif isinstance(node, PostFilter):
            scope = alias_scopes(node.input, registry, sources)
            for pred in node.predicates:
                out.extend(_check_predicate(pred, scope, node.label()))
        elif isinstance(node, UnionAll):
            out.extend(_union_diagnostics(node, registry, sources))

    if pattern is not None and not pattern.returns.is_star:
        scope = alias_scopes(plan.root, registry, sources)
        for item in pattern.returns.projection:
            alias, _, attribute = item.partition(".")
            if not attribute:
                out.append(
                    error(
                        "RA103",
                        f"RETURN entry {item!r} must be alias.attribute",
                        pattern.name,
                    )
                )
                continue
            diag = _check_ref(alias, attribute, scope, f"RETURN of {pattern.name}", "RA103")
            if diag is not None:
                out.append(diag)
    return out

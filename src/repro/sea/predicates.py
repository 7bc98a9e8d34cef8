"""Predicate expression trees for pattern WHERE clauses.

Patterns constrain participating events with predicates over event
attributes (paper Listing 2: ``e1.value <= e2.value AND e3.value <= 10``).
This module models those predicates as small expression trees that can be

* evaluated against a *binding* (mapping of alias -> event),
* classified for the translator: a predicate referencing one alias is a
  pushdown filter; an equality between attributes of two aliases is an
  Equi-Join key candidate (optimization O3); any other two-alias
  predicate becomes a theta/post-join condition,
* rendered back to text for the SQL views of the mapped queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.asp.codegen import bind, code_cache
from repro.asp.datamodel import Event
from repro.errors import PatternValidationError

Binding = Mapping[str, Event]


class Expr:
    """Base class of value expressions."""

    def evaluate(self, binding: Binding) -> Any:
        raise NotImplementedError

    def aliases(self) -> frozenset[str]:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.render()


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: Any

    def evaluate(self, binding: Binding) -> Any:
        return self.value

    def aliases(self) -> frozenset[str]:
        return frozenset()

    def render(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


@dataclass(frozen=True, repr=False)
class Attr(Expr):
    """Attribute reference ``alias.attribute`` (e.g. ``e1.value``)."""

    alias: str
    attribute: str

    def evaluate(self, binding: Binding) -> Any:
        try:
            event = binding[self.alias]
        except KeyError:
            raise PatternValidationError(
                f"predicate references unbound alias '{self.alias}'"
            ) from None
        return event[self.attribute]

    def aliases(self) -> frozenset[str]:
        return frozenset({self.alias})

    def render(self) -> str:
        return f"{self.alias}.{self.attribute}"


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True, repr=False)
class Arith(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator '{self.op}'")

    def evaluate(self, binding: Binding) -> Any:
        return _ARITH_OPS[self.op](self.left.evaluate(binding), self.right.evaluate(binding))

    def aliases(self) -> frozenset[str]:
        return self.left.aliases() | self.right.aliases()

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


class Predicate:
    """Base class of boolean predicate nodes."""

    def evaluate(self, binding: Binding) -> bool:
        raise NotImplementedError

    def aliases(self) -> frozenset[str]:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def conjuncts(self) -> list["Predicate"]:
        """Flatten top-level conjunctions into a predicate list.

        The translator plans each conjunct independently (filter pushdown,
        join key extraction), which is sound because conjunction is
        commutative and associative.
        """
        return [self]

    def __repr__(self) -> str:
        return self.render()


_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True, repr=False)
class Compare(Predicate):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator '{self.op}'")

    def evaluate(self, binding: Binding) -> bool:
        return _CMP_OPS[self.op](self.left.evaluate(binding), self.right.evaluate(binding))

    def aliases(self) -> frozenset[str]:
        return self.left.aliases() | self.right.aliases()

    def render(self) -> str:
        return f"{self.left.render()} {self.op} {self.right.render()}"

    @property
    def is_equality(self) -> bool:
        return self.op in ("=", "==")

    def equi_join_attributes(self) -> tuple[tuple[str, str], tuple[str, str]] | None:
        """If this is ``a.x = b.y`` with distinct aliases, return
        ``((a, x), (b, y))`` — an Equi-Join key candidate for O3."""
        if not self.is_equality:
            return None
        if not isinstance(self.left, Attr) or not isinstance(self.right, Attr):
            return None
        if self.left.alias == self.right.alias:
            return None
        return ((self.left.alias, self.left.attribute), (self.right.alias, self.right.attribute))


@dataclass(frozen=True, repr=False)
class And(Predicate):
    left: Predicate
    right: Predicate

    def evaluate(self, binding: Binding) -> bool:
        return self.left.evaluate(binding) and self.right.evaluate(binding)

    def aliases(self) -> frozenset[str]:
        return self.left.aliases() | self.right.aliases()

    def render(self) -> str:
        return f"({self.left.render()} AND {self.right.render()})"

    def conjuncts(self) -> list[Predicate]:
        return self.left.conjuncts() + self.right.conjuncts()


@dataclass(frozen=True, repr=False)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def evaluate(self, binding: Binding) -> bool:
        return self.left.evaluate(binding) or self.right.evaluate(binding)

    def aliases(self) -> frozenset[str]:
        return self.left.aliases() | self.right.aliases()

    def render(self) -> str:
        return f"({self.left.render()} OR {self.right.render()})"


@dataclass(frozen=True, repr=False)
class Not(Predicate):
    inner: Predicate

    def evaluate(self, binding: Binding) -> bool:
        return not self.inner.evaluate(binding)

    def aliases(self) -> frozenset[str]:
        return self.inner.aliases()

    def render(self) -> str:
        return f"NOT ({self.inner.render()})"


@dataclass(frozen=True, repr=False)
class TruePredicate(Predicate):
    """Neutral element; a pattern without WHERE uses this."""

    def evaluate(self, binding: Binding) -> bool:
        return True

    def aliases(self) -> frozenset[str]:
        return frozenset()

    def render(self) -> str:
        return "TRUE"

    def conjuncts(self) -> list[Predicate]:
        return []


def conjunction_of(predicates: Iterable[Predicate]) -> Predicate:
    """Fold a predicate list back into a single conjunction."""
    result: Predicate | None = None
    for pred in predicates:
        if isinstance(pred, TruePredicate):
            continue
        result = pred if result is None else And(result, pred)
    return result if result is not None else TruePredicate()


def classify_conjuncts(
    predicate: Predicate,
) -> tuple[dict[str, list[Predicate]], list[Compare], list[Predicate]]:
    """Split a WHERE clause for the translator.

    Returns ``(single_alias, equi_joins, multi_alias)``:

    * ``single_alias`` — conjuncts touching exactly one alias, grouped by
      alias; these become pushdown filters on the per-type input streams
      (the classic filter-pushdown ASP optimization the paper's
      decomposition unlocks);
    * ``equi_joins`` — equality comparisons between attributes of two
      aliases, the O3 key candidates;
    * ``multi_alias`` — everything else crossing aliases; evaluated after
      the joins as post-join selections.
    """
    single: dict[str, list[Predicate]] = {}
    equi: list[Compare] = []
    multi: list[Predicate] = []
    for conjunct in predicate.conjuncts():
        referenced = conjunct.aliases()
        if len(referenced) <= 1:
            alias = next(iter(referenced), "")
            single.setdefault(alias, []).append(conjunct)
        elif isinstance(conjunct, Compare) and conjunct.equi_join_attributes() is not None:
            equi.append(conjunct)
        else:
            multi.append(conjunct)
    return single, equi, multi


# -- generated row filter (the batch engine's pushdown filters) ----------------
#
# Tree-walking ``evaluate`` pays a binding-dict allocation, an operator
# table lookup and a virtual dispatch per node per call. For predicates
# whose conjuncts each reference at most one alias — the filter-pushdown
# case — the tree is instead rendered once as Python source, and one
# generated comprehension runs the whole conjunction over a batch as
# inline bytecode: no per-event call, no attribute dispatch for the core
# slots. Semantics are ``evaluate``'s with a singleton binding (same
# operators, same short-circuit order, same ``SchemaError`` for a
# missing attribute).

#: Event.__getitem__ names that are slots.
CORE_SLOTS = {
    "ts": "ts",
    "id": "id",
    "value": "value",
    "lat": "lat",
    "lon": "lon",
    "type": "event_type",
    "event_type": "event_type",
}


def _source_expr(expr: Expr, attr_source: Callable[[Attr], str], consts: list[Any]) -> str:
    if isinstance(expr, Const):
        consts.append(expr.value)
        return f"_k{len(consts) - 1}"
    if isinstance(expr, Attr):
        return attr_source(expr)
    if isinstance(expr, Arith):
        left = _source_expr(expr.left, attr_source, consts)
        right = _source_expr(expr.right, attr_source, consts)
        return f"({left} {expr.op} {right})"
    raise TypeError(f"cannot compile expression {expr!r} to source")


_SOURCE_CMP = {"=": "==", "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def predicate_source(
    pred: Predicate, attr_source: Callable[[Attr], str], consts: list[Any]
) -> str:
    """``pred`` as a Python expression, for generated functions.

    ``attr_source`` renders each attribute reference (and raises
    ``TypeError`` for one it cannot); constants are appended to
    ``consts`` and named ``_k<position>``. Operators and short-circuit
    order are ``evaluate``'s. Raises ``TypeError`` for node types
    outside the closed AST (an opaque UDF predicate).
    """
    if isinstance(pred, Compare):
        left = _source_expr(pred.left, attr_source, consts)
        right = _source_expr(pred.right, attr_source, consts)
        return f"{left} {_SOURCE_CMP[pred.op]} {right}"
    if isinstance(pred, And):
        return f"({predicate_source(pred.left, attr_source, consts)} and {predicate_source(pred.right, attr_source, consts)})"
    if isinstance(pred, Or):
        return f"({predicate_source(pred.left, attr_source, consts)} or {predicate_source(pred.right, attr_source, consts)})"
    if isinstance(pred, Not):
        return f"(not ({predicate_source(pred.inner, attr_source, consts)}))"
    if isinstance(pred, TruePredicate):
        return "True"
    raise TypeError(f"cannot compile predicate {pred!r} to source")


def attribute_read(event: str, attribute: str) -> str:
    """Source text reading ``attribute`` of the event named ``event``: a
    slot read for a core attribute, ``event['name']`` for any other — so
    a missing one raises ``SchemaError`` where ``evaluate`` would."""
    slot = CORE_SLOTS.get(attribute)
    return f"{event}.{slot}" if slot else f"{event}[{attribute!r}]"


def row_filter_source(predicates: Iterable[Predicate]) -> tuple[str, list[Any]] | None:
    """Source text and constants of the row filter of pushdown conjuncts,
    or ``None`` when a conjunct falls outside the closed predicate AST."""
    consts: list[Any] = []
    try:
        parts = [
            predicate_source(p, lambda ref: attribute_read("_e", ref.attribute), consts)
            for p in predicates
        ]
    except TypeError:
        return None
    body = " and ".join(f"({p})" for p in parts) if parts else "True"
    return f"def keep(events):\n    return [_e for _e in events if {body}]", consts


_filter_code = code_cache("<row filter>")


def compile_mask(predicates: Iterable[Predicate]) -> Callable[[Iterable[Event]], list[Event]] | None:
    """Compile pushdown conjuncts into the one generated row filter.

    Returns ``keep(events) -> [surviving events]`` evaluating the
    conjunction over a batch in one comprehension, or ``None`` for a
    predicate node without a source form (an opaque UDF predicate; the
    filter operator then runs its callable per item). Agrees with
    ``evaluate`` event for event, raised errors included. Scans of one
    shape share one code object; the constants are bound per scan.
    """
    rendered = row_filter_source(predicates)
    if rendered is None:
        return None
    source, consts = rendered
    return bind(_filter_code, source, "keep", {f"_k{j}": v for j, v in enumerate(consts)})


# -- convenience constructors used by tests and examples ---------------------


def attr(alias: str, attribute: str) -> Attr:
    return Attr(alias, attribute)


def const(value: Any) -> Const:
    return Const(value)


def cmp(op: str, left: Expr, right: Expr) -> Compare:
    return Compare(op, left, right)

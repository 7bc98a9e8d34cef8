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


def compile_single_alias(predicates: Iterable[Predicate], alias: str) -> Callable[[Event], bool]:
    """Compile single-alias conjuncts into an ``Event -> bool`` callable."""
    preds = list(predicates)

    def check(event: Event) -> bool:
        binding = {alias: event}
        return all(p.evaluate(binding) for p in preds)

    return check


# -- closure compilation (batched/fused execution hot path) -------------------
#
# Tree-walking ``evaluate`` pays a binding-dict allocation, an operator
# table lookup, and a virtual dispatch per node per call. For predicates
# whose conjuncts each reference at most one alias — the filter-pushdown
# case — the tree can instead be compiled once into nested closures that
# read the event directly. Semantics are identical to ``evaluate`` with
# a singleton binding (same operators, same short-circuiting).


def _compile_expr(expr: Expr) -> Callable[[Event], Any]:
    if isinstance(expr, Const):
        value = expr.value
        return lambda event: value
    if isinstance(expr, Attr):
        attribute = expr.attribute
        return lambda event: event[attribute]
    if isinstance(expr, Arith):
        op = _ARITH_OPS[expr.op]
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)
        return lambda event: op(left(event), right(event))
    raise TypeError(f"cannot compile expression {expr!r}")


def _compile_pred(pred: Predicate) -> Callable[[Event], bool]:
    if isinstance(pred, Compare):
        op = _CMP_OPS[pred.op]
        left = _compile_expr(pred.left)
        right = _compile_expr(pred.right)
        return lambda event: op(left(event), right(event))
    if isinstance(pred, And):
        left = _compile_pred(pred.left)
        right = _compile_pred(pred.right)
        return lambda event: left(event) and right(event)
    if isinstance(pred, Or):
        left = _compile_pred(pred.left)
        right = _compile_pred(pred.right)
        return lambda event: left(event) or right(event)
    if isinstance(pred, Not):
        inner = _compile_pred(pred.inner)
        return lambda event: not inner(event)
    if isinstance(pred, TruePredicate):
        return lambda event: True
    raise TypeError(f"cannot compile predicate {pred!r}")


def compile_check(predicates: Iterable[Predicate]) -> Callable[[Event], bool] | None:
    """Compile a conjunct list (each referencing at most one alias, i.e.
    pushdown filters over a single event) into one fast closure, or
    ``None`` for predicate types without a compiled form."""
    try:
        checks = [_compile_pred(p) for p in predicates]
    except TypeError:
        return None
    if not checks:
        return lambda event: True
    if len(checks) == 1:
        return checks[0]

    def check(event: Event) -> bool:
        for c in checks:
            if not c(event):
                return False
        return True

    return check


# -- column mask compilation (struct-of-arrays batches) -----------------------
#
# The batch engine carries batches of materialized, time-sorted sources
# as views over parallel arrays (one list per core attribute, shared
# across every batch of a source). A pushdown
# filter then wants a *mask*: given the base columns and the indices a
# batch selects, return the surviving indices. Compiling the predicate
# tree into one generated list comprehension removes the per-event
# closure call and attribute dispatch the row path pays — the comparison
# runs as inline bytecode over local list references. Only predicates
# over the core slot attributes compile; anything else (``attrs`` map
# lookups) returns ``None`` and the operator falls back to rows.

#: Event.__getitem__ names that are slots (and ColumnStore columns).
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


def compile_mask(predicates: Iterable[Predicate]) -> Callable[[Any, Iterable[int]], list[int]] | None:
    """Compile pushdown conjuncts into a column-mask function.

    Returns ``mask(store, indices) -> [surviving indices]`` evaluating the
    conjunction over the store's base columns, or ``None`` when any
    conjunct falls outside the maskable subset (then the row-compiled
    ``compile_check`` closure remains the fast path). Short-circuit order
    matches ``evaluate``/``compile_check`` exactly, so masked and row
    execution agree event-for-event.
    """
    cols: dict[str, None] = {}
    consts: list[Any] = []

    def column_ref(attribute: Attr) -> str:
        column = CORE_SLOTS.get(attribute.attribute)
        if column is None:
            raise TypeError(f"no column for attribute '{attribute.attribute}'")
        cols[column] = None
        return f"_c_{column}[_i]"

    try:
        parts = [predicate_source(p, column_ref, consts) for p in predicates]
    except TypeError:
        return None
    body = " and ".join(f"({p})" for p in parts) if parts else "True"
    lines = ["def _mask(store, indices):"]
    for name in cols:
        lines.append(f"    _c_{name} = store.column({name!r})")
    lines.append(f"    return [_i for _i in indices if {body}]")
    namespace: dict[str, Any] = {f"_k{j}": v for j, v in enumerate(consts)}
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from a closed AST
    return namespace["_mask"]


# -- convenience constructors used by tests and examples ---------------------


def attr(alias: str, attribute: str) -> Attr:
    return Attr(alias, attribute)


def const(value: Any) -> Const:
    return Const(value)


def cmp(op: str, left: Expr, right: Expr) -> Compare:
    return Compare(op, left, right)

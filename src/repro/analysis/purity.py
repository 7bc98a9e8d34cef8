"""UDF purity pass (RA5xx): AST linting of user predicates and maps.

Shard/serial equivalence (O3) and replayability both require UDFs to be
*pure*: deterministic, side-effect free, and independent of mutable
state outside the event. This pass recovers each callable's source with
:mod:`inspect`, parses it with :mod:`ast` and rejects

* nondeterminism — ``random``/``secrets``/``uuid``, wall-clock reads
  (RA501);
* I/O — ``open``/``print``, sockets, subprocesses, filesystem calls
  (RA502);
* mutation of closed-over or global state — ``global``/``nonlocal``,
  mutator-method calls and item/attribute assignment on free variables
  (RA503).

Callables whose source cannot be recovered (builtins, C extensions,
REPL-defined functions) yield RA504 warnings: purity is then asserted,
not proven. Results are cached per code object — the translator reuses
the same closure code objects across every translation, so the suite
pays the AST cost once per distinct lambda.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from types import CodeType
from typing import Any, Callable, Optional

from repro.analysis.diagnostics import Diagnostic, Severity, warning

#: Module roots whose mere use marks a UDF nondeterministic.
_NONDETERMINISTIC_MODULES = frozenset({"random", "secrets", "uuid"})

#: Fully qualified calls that read clocks or entropy.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "time.time_ns",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
    }
)

#: Bare names that are nondeterministic wherever they come from.
_NONDETERMINISTIC_NAMES = frozenset(
    {
        "randint",
        "randrange",
        "getrandbits",
        "uniform",
        "gauss",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uuid1",
        "uuid4",
        "token_bytes",
        "token_hex",
        "perf_counter",
        "monotonic",
        "time_ns",
        "urandom",
    }
)

#: Module roots that imply I/O.
_IO_MODULES = frozenset({"socket", "subprocess", "requests", "urllib", "http", "shutil"})

#: Bare builtins that perform I/O.
_IO_NAMES = frozenset({"open", "print", "input"})

#: Method names that are unambiguous I/O on any receiver.
_IO_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "urlopen",
        "system",
        "popen",
        "send",
        "sendall",
        "recv",
        "connect",
    }
)

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Per-code-object memo: the suite translates the same lambdas thousands
#: of times, but each distinct lambda is parsed exactly once.
_CACHE: dict[CodeType, tuple[Diagnostic, ...]] = {}


def _dotted_name(func: ast.expr) -> tuple[str, ...]:
    parts: list[str] = []
    node: ast.expr = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _matching_lambda(tree: ast.AST, code: CodeType) -> Optional[ast.Lambda]:
    """The lambda in ``tree`` whose argument names match ``code``."""
    expected = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    candidates: list[ast.Lambda] = [
        node for node in ast.walk(tree) if isinstance(node, ast.Lambda)
    ]
    for node in candidates:
        names = tuple(a.arg for a in node.args.args + node.args.kwonlyargs)
        if names == expected:
            return node
    return candidates[0] if candidates else None


def _matching_def(tree: ast.AST, name: str) -> Optional[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    return None


def _extract_lambda(source: str, code: CodeType) -> Optional[ast.Lambda]:
    """Best-effort recovery of a lambda from a source fragment that does
    not parse as a statement (trailing ``,``/``)`` of the enclosing call,
    multi-line bodies...): find each ``lambda`` occurrence and trim the
    tail until an expression parses."""
    budget = 2000
    for idx in _lambda_offsets(source):
        for end in range(len(source), idx + 6, -1):
            budget -= 1
            if budget <= 0:
                return None
            fragment = source[idx:end]
            for candidate in (fragment, f"({fragment})"):
                try:
                    tree = ast.parse(candidate, mode="eval")
                except SyntaxError:
                    continue
                found = _matching_lambda(tree, code)
                if found is not None:
                    return found
    return None


def _lambda_offsets(source: str) -> list[int]:
    out: list[int] = []
    start = 0
    while True:
        idx = source.find("lambda", start)
        if idx < 0:
            return out
        out.append(idx)
        start = idx + 6


def _function_ast(
    fn: Callable[..., Any], code: CodeType
) -> tuple[Optional[ast.AST], str]:
    """(AST of the function body, source location) — AST is ``None`` when
    the source cannot be recovered."""
    location = f"{code.co_filename}:{code.co_firstlineno}"
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return None, location
    is_lambda = code.co_name == "<lambda>"
    try:
        tree: Optional[ast.AST] = ast.parse(source)
    except SyntaxError:
        tree = None
    if tree is not None:
        if is_lambda:
            return _matching_lambda(tree, code), location
        found = _matching_def(tree, code.co_name)
        return (found if found is not None else tree), location
    if is_lambda:
        return _extract_lambda(source, code), location
    return None, location


class _PurityVisitor(ast.NodeVisitor):
    def __init__(self, free_names: frozenset[str], where: str, source: str):
        self.free_names = free_names
        self.where = where
        self.source = source
        self.found: list[Diagnostic] = []

    def _report(self, code: str, message: str) -> None:
        self.found.append(
            Diagnostic(code, Severity.ERROR, message, self.where, self.source)
        )

    # -- nondeterminism / IO ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        parts = _dotted_name(node.func)
        if parts:
            dotted = ".".join(parts)
            tail2 = ".".join(parts[-2:])
            if (
                parts[0] in _NONDETERMINISTIC_MODULES
                or dotted in _NONDETERMINISTIC_CALLS
                or tail2 in _NONDETERMINISTIC_CALLS
                or parts[-1] in _NONDETERMINISTIC_NAMES
            ):
                self._report(
                    "RA501",
                    f"call to '{dotted}' is nondeterministic; shard/serial and "
                    "replay equivalence break",
                )
            elif (
                parts[0] in _IO_MODULES
                or (len(parts) == 1 and parts[0] in _IO_NAMES)
                or (len(parts) > 1 and parts[-1] in _IO_METHODS)
            ):
                self._report("RA502", f"call to '{dotted}' performs I/O inside a UDF")
            elif (
                len(parts) == 2
                and parts[0] in self.free_names
                and parts[1] in _MUTATOR_METHODS
            ):
                self._report(
                    "RA503",
                    f"'{dotted}' mutates closed-over variable '{parts[0]}'; UDF "
                    "results depend on call order",
                )
        self.generic_visit(node)

    # -- mutation of enclosing scopes -------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self._report(
            "RA503", f"'global {', '.join(node.names)}' writes enclosing state"
        )

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._report(
            "RA503", f"'nonlocal {', '.join(node.names)}' writes enclosing state"
        )

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            root = target
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if isinstance(root, ast.Name) and root.id in self.free_names:
                self._report(
                    "RA503",
                    f"assignment into closed-over variable '{root.id}' makes the "
                    "UDF stateful",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        if isinstance(node.target, ast.Name) and node.target.id in self.free_names:
            self._report(
                "RA503",
                f"augmented assignment to closed-over variable '{node.target.id}' "
                "makes the UDF stateful",
            )
        self.generic_visit(node)


def callable_diagnostics(fn: Callable[..., Any], where: str) -> list[Diagnostic]:
    """Purity findings for one UDF; cached per code object."""
    target = fn.func if isinstance(fn, functools.partial) else fn
    code = getattr(target, "__code__", None)
    if code is None:
        bound = getattr(target, "__func__", None)  # bound methods
        code = getattr(bound, "__code__", None)
        if bound is not None:
            target = bound
    if code is None:
        module = getattr(target, "__module__", "") or ""
        if module == "builtins":
            return []  # len/float/str...: pure by construction
        name = getattr(target, "__qualname__", repr(target))
        return [
            warning(
                "RA504",
                f"source of UDF '{name}' is unavailable; purity cannot be proven",
                where,
            )
        ]
    cached = _CACHE.get(code)
    if cached is not None:
        return [
            Diagnostic(d.code, d.severity, d.message, where, d.source) for d in cached
        ]
    tree, location = _function_ast(target, code)
    if tree is None:
        found: list[Diagnostic] = [
            warning(
                "RA504",
                f"source of UDF '{code.co_name}' could not be parsed; purity "
                "cannot be proven",
                where,
                location,
            )
        ]
    else:
        visitor = _PurityVisitor(frozenset(code.co_freevars), where, location)
        visitor.visit(tree)
        found = visitor.found
    _CACHE[code] = tuple(found)
    return found


#: Operator attributes that hold user (or translator-built) callables.
_CALLABLE_ATTRS = (
    "predicate",
    "fn",
    "theta",
    "left_key",
    "right_key",
    "key_fn",
    "udf",
    "selector",
    "condition",
)


def flow_purity_diagnostics(flow: Any) -> list[Diagnostic]:
    """Lint every callable attached to the dataflow's operators."""
    out: list[Diagnostic] = []
    for node in flow.operator_nodes():
        operator = node.operator
        for attr in _CALLABLE_ATTRS:
            fn = getattr(operator, attr, None)
            if callable(fn) and not isinstance(fn, type):
                out.extend(callable_diagnostics(fn, f"{node.name}.{attr}"))
    return out


def plan_purity_diagnostics(plan: Any) -> list[Diagnostic]:
    """Lint plan-level callables (iteration conditions) directly: the
    compiled closures only *call* them, so their bodies never reach the
    flow-level lint."""
    from repro.mapping.optimizer.ir import CountAggregate, WindowJoin

    out: list[Diagnostic] = []
    for node in plan.root.walk():
        if isinstance(node, WindowJoin) and node.consecutive_condition is not None:
            out.extend(
                callable_diagnostics(
                    node.consecutive_condition, f"{node.label()}.consecutive_condition"
                )
            )
        if isinstance(node, CountAggregate) and node.condition is not None:
            out.extend(
                callable_diagnostics(node.condition, f"{node.label()}.condition")
            )
    return out

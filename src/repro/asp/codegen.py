"""The one place generated source becomes a function.

The batch engine generates two kinds of code from plan facts: a scan's
row filter (:func:`repro.sea.predicates.compile_mask`) and an interval
join's probe (:func:`repro.asp.operators.join.compile_probe`). Both
render source text, compile it once per distinct text, and bind each
operator's constants and callables in a namespace of its own.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType
from typing import Any, Callable


def code_cache(filename: str) -> Callable[[str], CodeType]:
    """A compiler for one kind of generated code, cached by source text
    (its ``cache_info()`` counts what was compiled)."""

    @lru_cache(maxsize=512)
    def code(source: str) -> CodeType:
        return compile(source, filename, "exec")

    return code


def bind(
    code: Callable[[str], CodeType], source: str, name: str, namespace: dict[str, Any]
) -> Any:
    """Run the cached code of ``source`` in ``namespace`` and return the
    function ``name`` it defines; it keeps its ``source`` for debuggers."""
    exec(code(source), namespace)  # noqa: S102 - generated from plan facts
    function = namespace[name]
    function.source = source
    return function

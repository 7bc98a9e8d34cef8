"""The multi-phase query compiler's optimizer package (DESIGN.md §11).

Phases::

    pattern AST --(build)--> logical plan IR --(rules)--> physical plan
                --(translator)--> dataflow

* :mod:`~repro.mapping.optimizer.ir` — the plan-tree IR all phases share
* :mod:`~repro.mapping.optimizer.build` — phase 1: Table-1 mapping rules
* :mod:`~repro.mapping.optimizer.rewrite` — phase 2: the rule engine
* :mod:`~repro.mapping.optimizer.rules` — phase 2: the rule inventory
* :mod:`~repro.mapping.optimizer.cost` — the pluggable cost models

:func:`optimize_plan` is the front door: phase 2 in one call, returning
a plan whose ``trace`` records every rule decision (fired and declined,
with before/after dumps and cost estimates).

This ``__init__`` resolves its re-exports lazily (PEP 562): submodules
like :mod:`ir` are imported by :mod:`repro.mapping.optimizations`, which
in turn is imported by every other submodule here — an eager package
``__init__`` would close that cycle during interpreter start-up.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.datamodel import TypeRegistry
    from repro.mapping.optimizations import TranslationOptions
    from repro.mapping.optimizer.cost import CostModel
    from repro.mapping.optimizer.ir import LogicalPlan
    from repro.mapping.optimizer.rewrite import Rule

#: The ``--optimize`` modes of ``repro explain``/``run``; the compile
#: entry points take ``off``/``static`` or a resolved ``cost_model``.
OPTIMIZE_MODES = ("off", "static", "profile")

#: Lazily-resolved re-exports: name -> defining submodule.
_EXPORTS = {
    "build_plan": "repro.mapping.optimizer.build",
    "CostModel": "repro.mapping.optimizer.cost",
    "PlanCost": "repro.mapping.optimizer.cost",
    "ProfileCostModel": "repro.mapping.optimizer.cost",
    "StaticCostModel": "repro.mapping.optimizer.cost",
    "estimate_plan": "repro.mapping.optimizer.cost",
    "LogicalPlan": "repro.mapping.optimizer.ir",
    "OptimizeContext": "repro.mapping.optimizer.rewrite",
    "Rule": "repro.mapping.optimizer.rewrite",
    "RuleApplication": "repro.mapping.optimizer.rewrite",
    "RuleDecision": "repro.mapping.optimizer.rewrite",
    "RuleTrace": "repro.mapping.optimizer.rewrite",
    "optimize_by_rules": "repro.mapping.optimizer.rewrite",
    "DEFAULT_RULES": "repro.mapping.optimizer.rules",
}

__all__ = sorted(
    [*_EXPORTS, "OPTIMIZE_MODES", "optimize_plan", "resolve_cost_model"]
)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def resolve_cost_model(
    mode: str,
    registry: "TypeRegistry | None" = None,
    profile_from: str | None = None,
) -> "CostModel | None":
    """Map an ``--optimize`` mode to a cost model (``None`` = phase 2 off).

    ``profile`` requires ``profile_from`` — the path of a prior run's
    ``repro.metrics/v1`` report; observed statistics replace the static
    guesses, with static fallback for anything unobserved.
    """
    from repro.mapping.optimizer.cost import ProfileCostModel, StaticCostModel

    if mode == "off":
        return None
    if mode == "static":
        return StaticCostModel(registry)
    if mode == "profile":
        if profile_from is None:
            raise ValueError(
                "--optimize=profile needs --profile-from=<metrics.json> "
                "(a prior run's repro.metrics/v1 report)"
            )
        from repro.asp.runtime.observability.costprofile import CostProfile

        return ProfileCostModel(CostProfile.load(profile_from), registry)
    raise ValueError(
        f"unknown optimize mode {mode!r} (expected one of {OPTIMIZE_MODES})"
    )


def optimize_plan(
    plan: "LogicalPlan",
    options: "TranslationOptions | None" = None,
    model: "CostModel | None" = None,
    *,
    rules: "Sequence[Rule] | None" = None,
) -> "LogicalPlan":
    """Run phase 2: apply the rewrite rules under the given cost model.

    ``model`` defaults to the static one. Deterministic (same plan +
    options + model → same output) and output-preserving: the engine
    checks the RA70x invariants after every rule that fires. The returned
    plan carries the full :class:`RuleTrace` in ``plan.trace``. The
    approximate O2 mapping is not a rewrite; it is the caller's
    ``options.iteration_strategy``.
    """
    from repro.mapping.optimizations import TranslationOptions
    from repro.mapping.optimizer.cost import StaticCostModel
    from repro.mapping.optimizer.rewrite import OptimizeContext, optimize_by_rules
    from repro.mapping.optimizer.rules import DEFAULT_RULES

    ctx = OptimizeContext(
        options=options or TranslationOptions(),
        model=model or StaticCostModel(),
    )
    return optimize_by_rules(plan, tuple(rules or DEFAULT_RULES), ctx)

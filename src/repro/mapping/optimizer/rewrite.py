"""Phase 2 of the query compiler: the rule-based rewrite engine.

Modeled on the ``optimize_by_rules`` shape of relational optimizers: an
ordered list of small, individually-testable :class:`Rule` objects, each
of which either *fires* (returns a rewritten plan plus the reason) or
*declines* (returns the reason it does not apply — including rejected
alternatives with their cost estimates, so ``repro explain`` can show
chosen-vs-rejected decisions, not just the winner).

The engine is the correctness gate, not the rules: after every fired
rule it re-checks the plan-equivalence invariants
(:mod:`repro.analysis.equivalence`, RA70x) between the pre- and
post-rewrite plans and raises
:class:`~repro.errors.OptimizationError` on any violation — a buggy rule
fails loudly at plan time instead of silently changing query results.

Everything is recorded in a :class:`RuleTrace` attached to the optimized
plan: per-rule before/after plan dumps, cost estimates under the active
cost model, and the full decision log. The trace feeds ``repro explain``
and is embedded into ``repro.metrics/v1`` reports for post-hoc audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any, Sequence

from repro.errors import OptimizationError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.cost import CostModel, estimate_plan
from repro.mapping.optimizer.ir import LogicalPlan


@dataclass(frozen=True)
class OptimizeContext:
    """Everything a rule may consult when deciding whether to fire."""

    options: TranslationOptions
    model: CostModel


@dataclass(frozen=True)
class RuleDecision:
    """What one rule decided for one plan."""

    fired: bool
    plan: LogicalPlan | None
    reason: str
    #: Rejected alternatives, one human-readable line each ("<candidate>:
    #: <why it lost>"), for chosen-vs-rejected reporting.
    alternatives: tuple[str, ...] = ()

    @staticmethod
    def fire(
        plan: LogicalPlan, reason: str, alternatives: Sequence[str] = ()
    ) -> "RuleDecision":
        return RuleDecision(True, plan, reason, tuple(alternatives))

    @staticmethod
    def decline(reason: str, alternatives: Sequence[str] = ()) -> "RuleDecision":
        return RuleDecision(False, None, reason, tuple(alternatives))


class Rule:
    """One rewrite rule. Subclasses implement :meth:`apply`.

    Every rule promises byte-identical query output; the engine enforces
    the RA70x structural invariants after every firing.
    """

    name = "abstract-rule"
    description = ""

    def apply(self, plan: LogicalPlan, ctx: OptimizeContext) -> RuleDecision:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name}>"


@dataclass(frozen=True)
class RuleApplication:
    """The decision log entry for one rule of one optimization run."""

    rule: str
    description: str
    fired: bool
    reason: str
    alternatives: tuple[str, ...] = ()
    #: Plan dumps around the rewrite; populated only when the rule fired.
    before: str | None = None
    after: str | None = None
    #: Total estimated plan cost (cpu units) under the active cost model.
    cost_before: float | None = None
    cost_after: float | None = None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "fired": self.fired,
            "reason": self.reason,
        }
        if self.alternatives:
            out["alternatives"] = list(self.alternatives)
        if self.cost_before is not None:
            out["cost_before"] = self.cost_before
        if self.fired:
            out["cost_after"] = self.cost_after
            out["before"] = self.before
            out["after"] = self.after
        return out


@dataclass(frozen=True)
class RuleTrace:
    """Full rewrite history of one ``optimize_by_rules`` run."""

    cost_model: str
    applications: tuple[RuleApplication, ...] = ()
    #: The phase-1 plan the rewrite started from, kept so verifiers can
    #: re-check the invariants after the fact (not serialized).
    initial: LogicalPlan | None = field(default=None, repr=False, compare=False)

    @property
    def fired_rules(self) -> tuple[str, ...]:
        return tuple(app.rule for app in self.applications if app.fired)

    def as_dict(self) -> dict[str, Any]:
        return {
            "cost_model": self.cost_model,
            "fired": list(self.fired_rules),
            "applications": [app.as_dict() for app in self.applications],
        }

    def render(self) -> str:
        """Per-rule report: before/after dumps for fired rules, the
        decline reason and rejected alternatives otherwise."""
        lines: list[str] = [f"cost model: {self.cost_model}"]
        for app in self.applications:
            status = "FIRED" if app.fired else "declined"
            lines.append(f"\n[{status}] {app.rule}: {app.reason}")
            if app.cost_before is not None and app.cost_after is not None:
                lines.append(
                    f"  cost: {app.cost_before:.3g} -> {app.cost_after:.3g} cpu units"
                )
            for alt in app.alternatives:
                lines.append(f"  rejected: {alt}")
            if app.fired and app.before and app.after:
                lines.append("  before:")
                lines.extend("    " + line for line in app.before.splitlines())
                lines.append("  after:")
                lines.extend("    " + line for line in app.after.splitlines())
        return "\n".join(lines)


def optimize_by_rules(
    plan: LogicalPlan,
    rules: Sequence[Rule],
    ctx: OptimizeContext,
) -> LogicalPlan:
    """Apply ``rules`` in order, once each, recording every decision.

    Single deterministic pass: rule order is fixed, each rule sees the
    plan produced by its predecessors, and a rule reaches its own
    fixpoint internally (rules rewrite every matching site in one
    firing). Same plan + same rules + same cost model → same output,
    which the determinism tests assert.
    """
    applications: list[RuleApplication] = []
    current = plan
    for rule in rules:
        cost_before = estimate_plan(current, ctx.model).total_cpu
        decision = rule.apply(current, ctx)
        if not decision.fired:
            applications.append(
                RuleApplication(
                    rule=rule.name,
                    description=rule.description,
                    fired=False,
                    reason=decision.reason,
                    alternatives=decision.alternatives,
                    cost_before=cost_before,
                )
            )
            continue
        assert decision.plan is not None
        rewritten = decision.plan
        # Lazy import: repro.analysis imports the mapping layer, so a
        # module-level import here would be circular.
        from repro.analysis.equivalence import check_rewrite_invariants

        violations = check_rewrite_invariants(current, rewritten)
        if violations:
            details = "; ".join(d.message for d in violations)
            raise OptimizationError(
                f"rewrite rule '{rule.name}' broke plan-equivalence "
                f"invariants: {details}"
            )
        applications.append(
            RuleApplication(
                rule=rule.name,
                description=rule.description,
                fired=True,
                reason=decision.reason,
                alternatives=decision.alternatives,
                before=current.explain(),
                after=rewritten.explain(),
                cost_before=cost_before,
                cost_after=estimate_plan(rewritten, ctx.model).total_cpu,
            )
        )
        current = rewritten
    trace = RuleTrace(
        cost_model=ctx.model.describe(),
        applications=tuple(applications),
        initial=plan,
    )
    return dc_replace(current, trace=trace)

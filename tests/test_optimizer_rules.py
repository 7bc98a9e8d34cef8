"""Per-rule unit tests for the phase-2 plan optimizer (PR 6).

Each rewrite rule is exercised in isolation: one test per fire path and
one per decline path, so a regression pinpoints the exact rule. The
rewrite engine's contracts — determinism, full rule traces, and the
RA70x structural-invariant gate on every fired rule — are tested at the
bottom.
"""

import dataclasses

import pytest

from repro.asp.datamodel import TypeRegistry
from repro.errors import OptimizationError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer import optimize_plan, resolve_cost_model
from repro.mapping.optimizer.build import build_plan
from repro.mapping.optimizer.cost import (
    EQ_SELECTIVITY,
    MANY_WINDOWS_THRESHOLD,
    NEQ_SELECTIVITY,
    RANGE_SELECTIVITY,
    ProfileCostModel,
    StaticCostModel,
    ordered_filters,
    predicate_selectivity,
)
from repro.mapping.optimizer.ir import (
    CountAggregate,
    JoinKind,
    Permute,
    PostFilter,
    WindowStrategy,
)
from repro.mapping.optimizer.rewrite import (
    OptimizeContext,
    Rule,
    RuleDecision,
    optimize_by_rules,
)
from repro.mapping.optimizer.rules import (
    DEFAULT_RULES,
    AnnotateCompiledSegments,
    AnnotateFusionSegments,
    ChooseIntervalWindows,
    OrderScanFilters,
    PushResidualPredicates,
    ReorderCommutativeJoin,
)
from repro.analysis.equivalence import check_rewrite_invariants
from repro.analysis.sharing import scan_pipelines
from repro.asp.runtime.observability.costprofile import CostProfile
from repro.sea.parser import parse_pattern


class RatesModel(StaticCostModel):
    """Static heuristics with injected per-type rates (ev/s)."""

    name = "stub"

    def __init__(self, rates):
        super().__init__()
        self.rates = rates

    def scan_rate(self, scan):
        return self.rates.get(scan.event_type)


def plan_for(text, options=None):
    pattern = parse_pattern(text, name="t")
    return build_plan(pattern, options or TranslationOptions())


def ctx_for(model=None, options=None):
    return OptimizeContext(
        options or TranslationOptions(), model or StaticCostModel()
    )


class DropFilters(Rule):
    """A broken rule: strips every pushed-down scan filter of a binary
    root, which the RA70x gate must catch."""

    name = "drop-filters"
    description = "evil: silently removes pushdown filters"

    def apply(self, plan, ctx):
        def strip(node):
            if hasattr(node, "filters") and node.filters:
                return dataclasses.replace(node, filters=())
            return node

        root = dataclasses.replace(
            plan.root,
            left=strip(plan.root.left),
            right=strip(plan.root.right),
        )
        return RuleDecision.fire(
            dataclasses.replace(plan, root=root), "dropped filters"
        )


class TestOrderScanFilters:
    def test_fires_when_filters_out_of_selectivity_order(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value != 3 AND a.value > 40 "
            "WITHIN 7 MINUTES"
        )
        decision = OrderScanFilters().apply(plan, ctx_for())
        assert decision.fired
        rendered = [p.render() for p in decision.plan.root.left.filters]
        assert rendered == ["a.value > 40", "a.value != 3"]

    def test_declines_when_already_ordered(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 AND a.value != 3 "
            "WITHIN 7 MINUTES"
        )
        decision = OrderScanFilters().apply(plan, ctx_for())
        assert not decision.fired
        assert "already" in decision.reason

    def test_rule_and_sharing_prover_share_one_order(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value != 3 AND a.value > 40 "
            "AND a.id > 7 WITHIN 7 MINUTES"
        )
        filters = plan.root.left.filters
        expected = ordered_filters(filters)
        assert [p.render() for p in expected] == [
            "a.id > 7", "a.value > 40", "a.value != 3",
        ]
        decision = OrderScanFilters().apply(plan, ctx_for())
        assert decision.plan.root.left.filters == expected
        # The prover keys on the same order whether or not phase 2 ran.
        (pipeline,) = [
            p for p in scan_pipelines("q", plan) if p.alias == "a"
        ]
        assert pipeline.filters == expected


class TestPushResidualPredicates:
    def _wrapped_plan(self):
        """A plan with the cross-alias theta lifted into a PostFilter."""
        plan = plan_for(
            "PATTERN AND(Q a, V b) WHERE a.value < b.value WITHIN 7 MINUTES"
        )
        join = plan.root
        pred = join.extra_theta[0]
        stripped = dataclasses.replace(
            join, extra_theta=(), kind=JoinKind.CROSS
        )
        return dataclasses.replace(
            plan, root=PostFilter(input=stripped, predicates=(pred,))
        ), pred

    def test_fires_and_upgrades_cross_to_theta(self):
        wrapped, pred = self._wrapped_plan()
        decision = PushResidualPredicates().apply(wrapped, ctx_for())
        assert decision.fired
        root = decision.plan.root
        assert not isinstance(root, PostFilter)
        assert pred in root.extra_theta
        assert root.kind is JoinKind.THETA

    def test_declines_without_post_filter(self):
        plan = plan_for("PATTERN AND(Q a, V b) WITHIN 7 MINUTES")
        decision = PushResidualPredicates().apply(plan, ctx_for())
        assert not decision.fired


class TestReorderCommutativeJoin:
    def test_fires_with_sparser_right_side(self):
        plan = plan_for(
            "PATTERN AND(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES"
        )
        model = RatesModel({"Q": 10.0, "V": 1.0})
        decision = ReorderCommutativeJoin().apply(plan, ctx_for(model))
        assert decision.fired
        root = decision.plan.root
        assert isinstance(root, Permute)
        assert root.order == (1, 0)
        # The permutation restores canonical composition order...
        assert root.aliases == ("a", "b")
        # ...while the join underneath executes sparse-side-first with
        # the equi key orientation flipped to match.
        assert root.input.left.event_type == "V"
        assert root.input.equi_keys == ((("b", "id"), ("a", "id")),)

    def test_fires_from_registry_frequencies(self):
        # A cross conjunction with no rates injected: the paper registry's
        # periods (Q every minute, PM10 every 4 minutes) alone put the
        # sparser PM10 stream on the window-driving left side.
        plan = plan_for("PATTERN AND(Q a, PM10 b) WITHIN 15 MINUTES")
        model = StaticCostModel(TypeRegistry.paper_default())
        decision = ReorderCommutativeJoin().apply(plan, ctx_for(model))
        assert decision.fired
        root = decision.plan.root
        assert root.aliases == ("a", "b")
        assert root.input.left.aliases == ("b",)

    def test_declines_on_equal_rates(self):
        plan = plan_for("PATTERN AND(Q a, V b) WITHIN 10 MINUTES")
        model = RatesModel({"Q": 1.0, "V": 1.0})
        assert not ReorderCommutativeJoin().apply(plan, ctx_for(model)).fired

    def test_declines_when_rates_unknown(self):
        plan = plan_for("PATTERN AND(Q a, V b) WITHIN 10 MINUTES")
        assert not ReorderCommutativeJoin().apply(plan, ctx_for()).fired

    def test_never_touches_ordered_sequence_joins(self):
        plan = plan_for("PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES")
        model = RatesModel({"Q": 10.0, "V": 1.0})
        assert not ReorderCommutativeJoin().apply(plan, ctx_for(model)).fired


class TestChooseIntervalWindows:
    def test_fires_on_many_overlapping_windows(self):
        plan = plan_for(
            f"PATTERN SEQ(Q a, V b) WITHIN {MANY_WINDOWS_THRESHOLD} MINUTES "
            "SLIDE 1 MINUTE"
        )
        decision = ChooseIntervalWindows().apply(plan, ctx_for())
        assert decision.fired
        assert decision.plan.root.strategy is WindowStrategy.INTERVAL

    def test_fires_on_sparse_left_rates(self):
        plan = plan_for("PATTERN SEQ(Q a, V b) WITHIN 5 MINUTES")
        model = RatesModel({"Q": 1.0, "V": 10.0})
        decision = ChooseIntervalWindows().apply(plan, ctx_for(model))
        assert decision.fired
        assert decision.plan.root.strategy is WindowStrategy.INTERVAL

    def test_declines_below_thresholds(self):
        plan = plan_for("PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES")
        decision = ChooseIntervalWindows().apply(plan, ctx_for())
        assert not decision.fired
        # The rejected alternative is part of the explain trail.
        assert decision.alternatives

    def test_declines_under_emit_duplicates(self):
        options = TranslationOptions(emit_duplicates=True)
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WITHIN 60 MINUTES SLIDE 1 MINUTE", options
        )
        decision = ChooseIntervalWindows().apply(
            plan, ctx_for(options=options)
        )
        assert not decision.fired


class TestAnnotateFusionSegments:
    def test_fires_on_align_over_filtered_scan(self):
        plan = plan_for(
            "PATTERN OR(Q a, V b) WHERE a.value > 40 AND b.value > 40 "
            "WITHIN 10 MINUTES"
        )
        decision = AnnotateFusionSegments().apply(plan, ctx_for())
        assert decision.fired
        assert any("fusion segment" in note for note in decision.plan.notes)

    def test_declines_without_stateless_runs(self):
        plan = plan_for("PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES")
        assert not AnnotateFusionSegments().apply(plan, ctx_for()).fired


class TestAnnotateCompiledSegments:
    def test_compiled_filter_note(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 AND b.value < 10 "
            "WITHIN 10 MINUTES"
        )
        decision = AnnotateCompiledSegments().apply(
            plan, ctx_for(RatesModel({"Q": 10.0, "V": 1.0}))
        )
        assert decision.fired
        assert AnnotateCompiledSegments.name == "annotate-compiled-segments"
        assert (
            "compiled filter: Scan(Q a) σ[a.value > 40] -> one generated pass "
            "(1 conjunct(s), survivors <= 10/s)" in decision.plan.notes
        )

    def test_interpreted_filter_note_names_the_opaque_node(self):
        from tests.test_join_probe import ValueBelow

        plan = plan_for("PATTERN SEQ(Q a, V b) WHERE b.value < 10 WITHIN 10 MINUTES")
        scan = dataclasses.replace(plan.root.left, filters=(ValueBelow("a", 50),))
        decision = AnnotateCompiledSegments().apply(
            dataclasses.replace(plan, root=dataclasses.replace(plan.root, left=scan)),
            ctx_for(),
        )
        assert (
            f"interpreted filter: {scan.label()} "
            "(below(a, 50): not in the closed predicate AST)" in decision.plan.notes
        )
        assert sum(n.startswith("compiled filter") for n in decision.plan.notes) == 1

    def test_applying_the_rule_compiles_nothing(self, monkeypatch):
        """``explain`` learns whether a filter compiles from its source
        text alone; the one ``exec`` per scan belongs to ``translate``."""
        import builtins

        calls = []
        for name in ("exec", "compile"):
            original = getattr(builtins, name)
            monkeypatch.setattr(
                builtins,
                name,
                lambda *a, _original=original, _name=name, **k: (
                    calls.append(_name),
                    _original(*a, **k),
                )[1],
            )
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 AND b.value < 10 "
            "AND a.value < b.value WITHIN 10 MINUTES",
            TranslationOptions.o1(),
        )
        assert AnnotateCompiledSegments().apply(plan, ctx_for()).fired
        assert calls == []

    def test_declines_without_filtered_scans_or_binary_joins(self):
        plan = plan_for("PATTERN OR(Q a, V b) WITHIN 10 MINUTES")
        assert not AnnotateCompiledSegments().apply(plan, ctx_for()).fired

    def notes(self, text, options=None):
        plan = plan_for(text, options)
        decision = AnnotateCompiledSegments().apply(plan, ctx_for(options=options))
        assert decision.fired
        return decision.plan.notes

    def test_interval_join_note_says_what_the_probe_inlines(self):
        notes = self.notes(
            "PATTERN SEQ(Q a, V b) WHERE a.value < b.value WITHIN 10 MINUTES",
            TranslationOptions.o1(),
        )
        assert (
            "probe: Join⋈θ[interval ordered] Event×Event, 1 conjunct inlined" in notes
        )

    def test_interval_join_note_names_the_conjunct_that_falls_back(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value < b.value WITHIN 10 MINUTES",
            TranslationOptions.o1(),
        )
        # A self-join chain spelt with one alias: the closure binds the
        # later `a`, which a positional expression cannot say.
        root = dataclasses.replace(
            plan.root, right=dataclasses.replace(plan.root.right, alias="a")
        )
        decision = AnnotateCompiledSegments().apply(
            dataclasses.replace(plan, root=root), ctx_for()
        )
        assert (
            "probe: Join⋈θ[interval ordered] Event×Event, falls back to theta() "
            "for a.value < b.value (alias 'a' bound 2 times)" in decision.plan.notes
        )

    def test_sliding_join_note_states_the_retest_factor(self):
        notes = self.notes(
            "PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES SLIDE 2 MINUTES"
        )
        assert (
            "sliding: Join⋈θ[sliding ordered] interpreted per-window pair loop "
            "(W/slide = 5)" in notes
        )


class TestRewriteEngine:
    def test_deterministic_given_same_inputs(self):
        pattern_text = (
            "PATTERN AND(Q a, V b) WHERE a.id = b.id WITHIN 60 MINUTES "
            "SLIDE 1 MINUTE"
        )
        model = RatesModel({"Q": 10.0, "V": 1.0})

        def run():
            plan = plan_for(pattern_text)
            return optimize_plan(plan, TranslationOptions(), model)

        first, second = run(), run()
        assert first.explain() == second.explain()
        assert first.trace.fired_rules == second.trace.fired_rules
        assert first.trace.as_dict() == second.trace.as_dict()
        assert first.summary() == second.summary()

    def test_trace_records_every_rule_in_order(self):
        plan = plan_for("PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES")
        optimized = optimize_plan(plan, TranslationOptions(), StaticCostModel())
        names = [app.rule for app in optimized.trace.applications]
        assert names == [rule.name for rule in DEFAULT_RULES]

    def test_violating_rule_is_rejected(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 WITHIN 10 MINUTES"
        )
        with pytest.raises(OptimizationError, match="predicate multiset"):
            optimize_by_rules(plan, (DropFilters(),), ctx_for())

    def test_optimize_plan_gates_every_fired_rule(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 WITHIN 10 MINUTES"
        )
        # Through the front door: no rule can opt out of the RA70x gate,
        # and the error names the rule that broke the plan.
        with pytest.raises(
            OptimizationError, match="'drop-filters' broke .*predicate multiset"
        ):
            optimize_plan(
                plan, TranslationOptions(), StaticCostModel(), rules=(DropFilters(),)
            )

    def test_iterations_keep_the_callers_strategy(self):
        # O2 is the caller's output contract (`iteration_strategy`), not
        # a rewrite: the optimizer keeps the exact self-join chain.
        plan = plan_for("PATTERN ITER3(V v) WITHIN 10 MINUTES")
        optimized = optimize_plan(plan, TranslationOptions(), StaticCostModel())
        assert not any(
            isinstance(node, CountAggregate) for node in optimized.root.walk()
        )
        assert optimized.explain() == optimize_plan(
            plan_for("PATTERN ITER3(V v) WITHIN 10 MINUTES"),
            TranslationOptions(iteration_strategy="join"),
            StaticCostModel(),
        ).explain()
        names = {app.rule for app in optimized.trace.applications}
        assert not any("aggregate" in name for name in names)


class TestRewriteInvariants:
    def _plan(self):
        return plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 WITHIN 10 MINUTES"
        )

    def test_identity_rewrite_is_clean(self):
        plan = self._plan()
        assert check_rewrite_invariants(plan, plan) == []

    def test_lost_predicate_is_ra702(self):
        plan = self._plan()
        stripped = dataclasses.replace(
            plan,
            root=dataclasses.replace(
                plan.root,
                left=dataclasses.replace(plan.root.left, filters=()),
            ),
        )
        codes = {d.code for d in check_rewrite_invariants(plan, stripped)}
        assert codes == {"RA702"}

    def test_swap_without_permute_is_ra701(self):
        plan = plan_for("PATTERN AND(Q a, V b) WITHIN 10 MINUTES")
        swapped = dataclasses.replace(
            plan,
            root=dataclasses.replace(
                plan.root, left=plan.root.right, right=plan.root.left
            ),
        )
        codes = {d.code for d in check_rewrite_invariants(plan, swapped)}
        assert codes == {"RA701"}

    def test_window_resize_is_ra703(self):
        plan = self._plan()
        resized = dataclasses.replace(
            plan,
            root=dataclasses.replace(
                plan.root, window_size=plan.root.window_size * 2
            ),
        )
        codes = {d.code for d in check_rewrite_invariants(plan, resized)}
        assert codes == {"RA703"}

    def test_sliding_to_interval_is_not_a_violation(self):
        # O1 is an execution-strategy change, deliberately outside the
        # RA703 window-extent key.
        plan = self._plan()
        interval = dataclasses.replace(
            plan,
            root=dataclasses.replace(
                plan.root, strategy=WindowStrategy.INTERVAL
            ),
        )
        assert check_rewrite_invariants(plan, interval) == []


class TestCostModels:
    def test_resolve_modes(self):
        assert resolve_cost_model("off") is None
        assert isinstance(resolve_cost_model("static"), StaticCostModel)
        with pytest.raises(ValueError):
            resolve_cost_model("profile")  # needs --profile-from
        with pytest.raises(ValueError):
            resolve_cost_model("aggressive")

    def test_predicate_selectivity_heuristics(self):
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value = 3 AND a.value > 40 "
            "AND a.value != 9 WITHIN 10 MINUTES"
        )
        by_render = {
            p.render(): predicate_selectivity(p)
            for p in plan.root.left.filters
        }
        assert by_render["a.value = 3"] == EQ_SELECTIVITY
        assert by_render["a.value > 40"] == RANGE_SELECTIVITY
        assert by_render["a.value != 9"] == NEQ_SELECTIVITY

    def test_static_rates_come_from_registry(self):
        plan = plan_for("PATTERN SEQ(Q a, V b) WITHIN 10 MINUTES")
        model = StaticCostModel(TypeRegistry.paper_default())
        # Q emits once a minute in the paper's registry metadata.
        assert model.scan_rate(plan.root.left) == pytest.approx(1 / 60)
        assert StaticCostModel().scan_rate(plan.root.left) is None

    def test_profile_model_prefers_observations(self):
        report = {
            "schema": "repro.metrics/v1",
            "job": {"name": "probe", "events_in": 1200, "pipeline_seconds": 60.0},
            "operators": {
                "filter[a]#3": {
                    "kind": "filter",
                    "events_in": 600,
                    "events_out": 60,
                    "selectivity": 0.1,
                },
                "join[a,b]#7": {
                    "kind": "window-join",
                    "events_in": 660,
                    "events_out": 33,
                    "selectivity": 0.05,
                    "state_peak_bytes": 4096,
                },
            },
        }
        profile = CostProfile.from_report(report)
        assert profile.job_name == "probe"
        assert profile.joins[0].kind == "window-join"
        plan = plan_for(
            "PATTERN SEQ(Q a, V b) WHERE a.value > 40 WITHIN 10 MINUTES"
        )
        model = ProfileCostModel(profile, TypeRegistry.paper_default())
        # Observed: 600 events over 60s of pipeline time.
        assert model.scan_rate(plan.root.left) == pytest.approx(10.0)
        assert model.scan_selectivity(plan.root.left) == pytest.approx(0.1)
        assert model.join_selectivity(plan.root, 0) == pytest.approx(0.05)
        # An unobserved alias has no rate: the registry's event-time
        # rates are a different unit from the profile's wall-clock rates,
        # so falling back would fabricate skew against observed scans.
        assert model.scan_rate(plan.root.right) is None
        # Dimensionless quantities do fall back to the static heuristics.
        assert model.scan_selectivity(plan.root.right) == pytest.approx(1.0)
        assert "probe" in model.describe()

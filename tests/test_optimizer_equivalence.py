"""Optimizer output-equivalence gates (PR 6).

The exact-output contract: for every catalog query, translating with
``optimize="static"`` or a metrics-fed profile model must produce
byte-identical match sets to the unoptimized plan — including under the
micro-batched engine and under crash/recovery from checkpoints. A
hypothesis property extends the guarantee beyond the catalog: any
subsequence of the default rule set, applied to randomly drawn patterns
under randomly skewed cost models, preserves equivalence.
"""

from hypothesis import given, settings, strategies as st

from repro.asp.datamodel import TypeRegistry
from repro.asp.operators.source import ListSource
from repro.asp.runtime import FaultPlan, FaultSpec
from repro.asp.runtime.fault.chaos import (
    _streams_for,
    canonical_match_bytes,
)
from repro.asp.runtime.observability.costprofile import CostProfile
from repro.asp.runtime.observability.report import run_report
from repro.cli import main
from repro.mapping.optimizer.cost import ProfileCostModel, StaticCostModel
from repro.mapping.optimizer.rules import DEFAULT_RULES
from repro.mapping.translator import translate
from repro.patterns import CATALOG
from repro.sea.parser import parse_pattern

SCALE_EVENTS = 600
SCALE_SENSORS = 3
SEED = 23

REGISTRY = TypeRegistry.paper_default()


def _query(pattern, streams, **kwargs):
    sources = {
        t: ListSource(list(evs), name=f"src[{t}]", event_type=t)
        for t, evs in streams.items()
    }
    return translate(pattern, sources, analyze=False, **kwargs)


def _run_bytes(pattern, streams, **kwargs):
    query = _query(pattern, streams, **kwargs)
    result = query.execute()
    return canonical_match_bytes(query.matches()), result, query


def test_catalog_static_optimizer_is_byte_identical():
    failures = []
    fired_any = False
    for name in sorted(CATALOG):
        pattern = CATALOG[name]()
        streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)
        ref_bytes, _, _ = _run_bytes(pattern, streams)
        opt_bytes, _, query = _run_bytes(
            pattern, streams, optimize="static", registry=REGISTRY
        )
        if opt_bytes != ref_bytes:
            failures.append(f"{name}: static-optimized matches differ")
        fired_any = fired_any or bool(query.plan.trace.fired_rules)
    assert not failures, "\n".join(failures)
    # The gate must not pass vacuously: the static model fires at least
    # O1 on the catalog's wide-window queries.
    assert fired_any


def test_catalog_profile_optimizer_is_byte_identical():
    failures = []
    for name in sorted(CATALOG):
        pattern = CATALOG[name]()
        streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)
        ref_bytes, ref_result, _ = _run_bytes(pattern, streams)
        # Feed the first run's own metrics report back into the planner.
        profile = CostProfile.from_report(run_report(ref_result))
        model = ProfileCostModel(profile, REGISTRY)
        opt_bytes, _, query = _run_bytes(pattern, streams, cost_model=model)
        if opt_bytes != ref_bytes:
            failures.append(f"{name}: profile-optimized matches differ")
        if query.plan.trace is None:
            failures.append(f"{name}: optimized plan lost its rule trace")
    assert not failures, "\n".join(failures)


def test_optimized_plan_survives_batching_and_fusion():
    name = "vehicle-pollution-alert"
    pattern = CATALOG[name]()
    streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)
    ref_bytes, _, _ = _run_bytes(pattern, streams)
    query = _query(pattern, streams, optimize="static", registry=REGISTRY)
    assert query.plan.trace.fired_rules  # O1 fires on the 30-minute window
    result = query.execute(batch_size=64)
    assert not result.failed
    assert canonical_match_bytes(query.matches()) == ref_bytes


def test_optimized_plan_survives_crash_recovery():
    name = "traffic-congestion"
    pattern = CATALOG[name]()
    streams = _streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED)
    ref_bytes, _, _ = _run_bytes(pattern, streams)
    query = _query(pattern, streams, optimize="static", registry=REGISTRY)
    crash = FaultPlan((FaultSpec("crash", at_event=SCALE_EVENTS // 3),))
    result = query.execute(checkpoint_interval=50, fault_plan=crash)
    assert not result.failed
    assert result.metrics["recovery"]["recovered"] == 1
    assert canonical_match_bytes(query.matches()) == ref_bytes


PROPERTY_PATTERNS = [
    "PATTERN SEQ(Q a, V b) WHERE a.value > 40 WITHIN 7 MINUTES SLIDE 1 MINUTE",
    "PATTERN AND(Q a, V b) WITHIN 4 MINUTES SLIDE 1 MINUTE",
    "PATTERN AND(Q a, V b) WHERE a.id = b.id WITHIN 40 MINUTES SLIDE 1 MINUTE",
    "PATTERN OR(Q a, V b) WHERE a.value > 30 AND b.value > 30 "
    "WITHIN 4 MINUTES SLIDE 1 MINUTE",
    "PATTERN SEQ(Q a, V b, W c) WITHIN 35 MINUTES SLIDE 1 MINUTE",
    "PATTERN ITER2(V v) WITHIN 5 MINUTES SLIDE 1 MINUTE",
]


class SkewedModel(StaticCostModel):
    """Registry-free model with drawn per-type rates, to push the
    cost-driven rules (reorder, O1) into firing on arbitrary sides."""

    name = "skewed"

    def __init__(self, rates):
        super().__init__()
        self.rates = rates

    def scan_rate(self, scan):
        return self.rates.get(scan.event_type)


@st.composite
def optimizer_cases(draw):
    pattern_text = draw(st.sampled_from(PROPERTY_PATTERNS))
    mask = draw(
        st.lists(
            st.booleans(), min_size=len(DEFAULT_RULES), max_size=len(DEFAULT_RULES)
        )
    )
    rules = tuple(r for r, keep in zip(DEFAULT_RULES, mask) if keep)
    rates = {
        t: draw(st.sampled_from([0.1, 1.0, 10.0, None])) for t in ("Q", "V", "W")
    }
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return pattern_text, rules, rates, seed


@given(optimizer_cases())
@settings(max_examples=20, deadline=None)
def test_rule_subsequences_preserve_equivalence(case):
    import random

    from repro.asp.datamodel import Event

    pattern_text, rules, rates, seed = case
    pattern = parse_pattern(pattern_text, name="prop")
    rng = random.Random(seed)
    events = [
        Event(
            rng.choice(("Q", "V", "W")),
            ts=i * 60_000,
            id=rng.choice((1, 2)),
            value=round(rng.uniform(0, 100), 3),
        )
        for i in range(60)
    ]
    streams = {}
    for event in events:
        streams.setdefault(event.event_type, []).append(event)
    for t in pattern.distinct_event_types():
        streams.setdefault(t, [])
    ref_bytes, _, _ = _run_bytes(pattern, streams)
    opt_bytes, _, _ = _run_bytes(
        pattern, streams, cost_model=SkewedModel(rates), rules=rules
    )
    assert opt_bytes == ref_bytes


def test_multiquery_static_optimizer_is_byte_identical():
    from repro.mapping.multiquery import translate_many

    names = sorted(CATALOG)
    patterns = [CATALOG[n]() for n in names]
    streams = {}
    for pattern in patterns:
        streams.update(_streams_for(pattern, SCALE_EVENTS, SCALE_SENSORS, SEED))

    def run(optimize):
        sources = {
            t: ListSource(list(evs), name=f"src[{t}]", event_type=t)
            for t, evs in streams.items()
        }
        mq = translate_many(
            patterns, sources, optimize=optimize, registry=REGISTRY
        )
        mq.execute()
        return mq, {
            n: canonical_match_bytes(mq.matches_of(i))
            for i, n in enumerate(names)
        }

    _, ref = run("off")
    mq, opt = run("static")
    assert ref == opt
    # Scan sharing still works across rewritten plans.
    assert mq.num_shared_scans > 0


def test_cli_explain_emits_rule_trace(capsys):
    rc = main([
        "explain", "-p",
        "PATTERN SEQ(Q a, V b) WITHIN 60 MINUTES SLIDE 1 MINUTE",
        "--optimize", "static",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[FIRED] choose-interval-windows" in out
    assert "[declined]" in out
    assert "cost model: static" in out


def test_cli_run_with_optimizer(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path), "--segments", "2",
               "--minutes", "120"])
    assert rc == 0
    capsys.readouterr()
    args = [
        "run", "-p",
        "PATTERN SEQ(Q a, V b) WITHIN 60 MINUTES SLIDE 1 MINUTE",
        "--stream", f"Q={tmp_path}/Q.csv", "--stream", f"V={tmp_path}/V.csv",
        "--show", "0",
    ]
    rc = main(args)
    base = capsys.readouterr().out
    assert rc == 0
    rc = main(args + ["--optimize", "static"])
    optimized = capsys.readouterr().out
    assert rc == 0
    assert "optimizer[static]: choose-interval-windows" in optimized

    def matches(text):
        for line in text.splitlines():
            if "events ->" in line:
                return line.split("events ->")[1].split("matches")[0].strip()
        raise AssertionError(f"no match line in {text!r}")

    assert matches(base) == matches(optimized)

"""Exact Kleene iteration (PR 10): the exact ITER operator against
the SEA denotational oracle and the join-chain mapping.

``iteration_strategy="exact"`` enumerates every ts-increasing event
composition per window (first-window deduplicated) instead of the m-way
self-join (O2's approximate count replaces both). For bounded ITERm the
exact operator must reproduce the join chain byte-for-byte; for bounded
and unbounded patterns alike it must reproduce ``evaluate_pattern``,
the executable semantics of Section 3. Workloads stay sparse — exact
Kleene output is combinatorial by definition.
"""

import pytest

from repro.asp.datamodel import merge_events
from repro.asp.runtime.fault.chaos import (
    _fresh_query,
    _streams_for,
    canonical_match_bytes,
)
from repro.mapping.optimizations import TranslationOptions
from repro.patterns import street_lighting_idle
from repro.sea.parser import parse_pattern
from repro.sea.semantics import evaluate_pattern

SEED = 13
SENSORS = 2


def _run(pattern, streams, strategy, **engine):
    query = _fresh_query(
        pattern, streams, TranslationOptions(iteration_strategy=strategy)
    )
    result = query.execute(**engine)
    assert not result.failed, result.failure
    return canonical_match_bytes(query.matches())


def _oracle_bytes(pattern, streams):
    merged = merge_events(*streams.values())
    return canonical_match_bytes(evaluate_pattern(pattern, merged))


@pytest.mark.parametrize("count", [2, 3])
def test_bounded_iteration_exact_equals_join_chain(count):
    pattern = parse_pattern(
        f"PATTERN ITER{count}(V v) WHERE v.value > 110.0 "
        "WITHIN 10 MINUTES SLIDE 2 MINUTES",
        name=f"iter{count}",
    )
    streams = _streams_for(pattern, 200, SENSORS, SEED)
    join_bytes = _run(pattern, streams, "join")
    exact_bytes = _run(pattern, streams, "exact")
    assert exact_bytes == join_bytes
    assert exact_bytes == _oracle_bytes(pattern, streams)


def test_unbounded_kleene_exact_equals_oracle():
    """ITERm+ has no join-chain mapping; the oracle is the only exact
    reference. Sparse predicate: runs stay short, output stays finite."""
    pattern = street_lighting_idle(velocity_free_flow=128.0, occurrences=3)
    streams = _streams_for(pattern, 160, SENSORS, SEED)
    exact_bytes = _run(pattern, streams, "exact")
    assert exact_bytes == _oracle_bytes(pattern, streams)
    assert exact_bytes  # the workload must actually produce matches


def test_exact_kleene_batched_equals_reference():
    pattern = street_lighting_idle(velocity_free_flow=128.0, occurrences=3)
    streams = _streams_for(pattern, 160, SENSORS, SEED)
    reference_bytes = _run(pattern, streams, "exact")
    for batch_size in (7, 256):
        assert _run(pattern, streams, "exact", batch_size=batch_size) == reference_bytes


def test_exact_kleene_recovery_byte_identical():
    from repro.asp.runtime import FaultPlan, FaultSpec

    pattern = street_lighting_idle(velocity_free_flow=128.0, occurrences=3)
    streams = _streams_for(pattern, 160, SENSORS, SEED)
    clean_bytes = _run(pattern, streams, "exact")
    total = sum(len(evs) for evs in streams.values())
    plan = FaultPlan((FaultSpec("crash", at_event=max(20, total // 2)),))
    recovered = _run(
        pattern,
        streams,
        "exact",
        checkpoint_interval=25,
        fault_plan=plan,
        batch_size=64,
    )
    assert recovered == clean_bytes

"""Property tests for the operator snapshot protocol.

Random patterns (the PR 3 hypothesis generators) drive two properties
over every stateful operator the translator can produce — joins,
aggregates, dedup, NSEQ UDF, the NFA operator:

* snapshot -> pickle -> restore into a fresh twin -> snapshot again is a
  fixed point (state survives serialization byte-for-byte);
* a run crashed mid-stream and recovered from a checkpoint finishes with
  exactly the clean run's matches.
"""

from hypothesis import given, settings, strategies as st

from repro.asp.runtime import FaultPlan, FaultSpec
from repro.asp.runtime.backends.base import ExecutionSettings
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.checkpoint import (
    capture_job_state,
    restore_job_state,
    sink_outputs,
)
from repro.asp.runtime.fault.store import pickle_payload, unpickle_payload
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern

from tests.test_round_protocol import parent_format_state
from tests.test_random_patterns import (
    flat_pattern_text,
    make_stream,
    nested_pattern_text,
    sources_for,
)


def _fresh_query(pattern, events):
    query = translate(pattern, sources_for(events))
    query.attach_sink()
    return query


def _state_key(state):
    """The parts of a captured job state that restore must reproduce."""
    return pickle_payload(
        {"operators": state["operators"], "watermark": state["watermark"]}
    )


class TestSnapshotRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(text=flat_pattern_text(), seed=st.integers(min_value=0, max_value=10**6))
    def test_restore_into_twin_is_a_fixed_point(self, text, seed):
        pattern = parse_pattern(text)
        events = make_stream(seed, n=35)

        original = _fresh_query(pattern, events)
        job = SerialJob(original.env.flow, ExecutionSettings())
        job.run()
        state = capture_job_state(job)
        payload = pickle_payload(state)

        twin = _fresh_query(pattern, events)
        twin_job = SerialJob(twin.env.flow, ExecutionSettings())
        # The state counts what the sinks retain; the lists travel beside it.
        restore_job_state(twin_job, unpickle_payload(payload), sink_outputs(job.flow))
        assert _state_key(capture_job_state(twin_job)) == _state_key(state)
        assert sink_outputs(twin_job.flow) == sink_outputs(job.flow)

    @settings(max_examples=8, deadline=None)
    @given(text=nested_pattern_text(), seed=st.integers(min_value=0, max_value=10**6))
    def test_nested_patterns_round_trip_too(self, text, seed):
        pattern = parse_pattern(text)
        events = make_stream(seed, n=30)
        original = _fresh_query(pattern, events)
        job = SerialJob(original.env.flow, ExecutionSettings())
        job.run()
        state = capture_job_state(job)
        twin = _fresh_query(pattern, events)
        twin_job = SerialJob(twin.env.flow, ExecutionSettings())
        # A payload whose sink snapshots still carry their lists.
        whole = pickle_payload(parent_format_state(job))
        restore_job_state(twin_job, unpickle_payload(whole))
        assert _state_key(capture_job_state(twin_job)) == _state_key(state)
        assert sink_outputs(twin_job.flow) == sink_outputs(job.flow)


class TestCrashRecoveryEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        text=flat_pattern_text(),
        seed=st.integers(min_value=0, max_value=10**6),
        crash_at=st.integers(min_value=2, max_value=28),
        interval=st.integers(min_value=3, max_value=12),
    )
    def test_recovered_matches_equal_clean_matches(
        self, text, seed, crash_at, interval
    ):
        pattern = parse_pattern(text)
        events = make_stream(seed, n=30)

        clean = _fresh_query(pattern, events)
        clean.env.execute()
        want = sorted(repr(m.dedup_key()) for m in clean.matches())

        crashed = _fresh_query(pattern, events)
        plan = FaultPlan((FaultSpec("crash", at_event=crash_at),))
        result = crashed.env.execute(checkpoint_interval=interval, fault_plan=plan)
        got = sorted(repr(m.dedup_key()) for m in crashed.matches())

        assert not result.failed
        # The crash only fires if the pattern's sources carry that many
        # events (the generator spreads the stream over types Q/V/W).
        relevant = [
            e for e in events if e.event_type in pattern.distinct_event_types()
        ]
        fired = crash_at <= len(relevant)
        assert result.metrics["recovery"]["attempts"] == (2 if fired else 1)
        assert got == want, text

"""A counter counts the stream once.

Every per-operator count — the backend's ``events_in``/``events_out``/
``watermark_calls`` and latency histogram, and each operator's own
``collect_metrics`` counters — is a total over the stream prefix the job
has processed, and it travels in the checkpoint with the operator's
state. So a served job read after its drain reports what one
``execute()`` of the same events on the same backend reports, however
its rounds were cut, whichever backend ran them and across a new process
resuming its state dir; and a run with a masked crash reports what the
run without it does.
"""

from dataclasses import replace

import pytest

from repro.asp.runtime import FaultPlan, FaultSpec, run_report
from repro.experiments.common import Scale, qnv_aq_workload
from repro.runtime.service import JobManager, ServiceConfig

STREAMS = qnv_aq_workload(Scale(events=800, sensors=4, seed=7))
EVENTS = sorted((e for t in ("Q", "V") for e in STREAMS[t]), key=lambda e: e.ts)

#: A selective keyed join: shardable on ``id``, with matches, pairs
#: tested and window state to count.
REQUEST = {
    "name": "open",
    "query": {
        "name": "open",
        "pattern": (
            "PATTERN SEQ(Q q1, V v1) WHERE q1.value > 82 AND v1.value < 25 "
            "AND q1.id = v1.id WITHIN 15 MINUTES SLIDE 1 MINUTE"
        ),
        "options": {"o3": "id"},
    },
}

BACKENDS = {
    "serial": {"backend": "serial"},
    "sharded-inline": {"backend": "sharded"},
    "sharded-four-lanes": {"backend": "sharded", "shards": 4},
}

#: What may differ: timings, and state peaks (they cover the time since
#: the job object was built or restored).
NOT_COUNTS = ("latency_s", "state_peak_bytes", "state_peak_items")


def counts(report):
    return {
        scope: {name: value for name, value in op.items() if name not in NOT_COUNTS}
        for scope, op in report["operators"].items()
    }


def compiled(backend):
    """A job as serve compiles it, every event in its log, no round run."""
    manager = JobManager(ServiceConfig())
    job = manager.jobs[manager.submit({**REQUEST, **BACKENDS[backend]})["id"]]
    for event in EVENTS:
        manager.ingest_event(event)
    job.drain_queue()
    return job


def one_shot(backend, **settings):
    """``execute()`` of every event on the backend a served job runs,
    with the job's settings bar ``settings``."""
    job = compiled(backend)
    result = job.runner.execute(job.compiled.env.flow, replace(job.settings, **settings))
    assert not result.failed and result.events_in == len(EVENTS)
    return result


def serve(manager, job_id, events, stride, start=0):
    """Ingest ``events`` (wire seqs from ``start + 1``), a worker round
    every ``stride`` of them (None: no round before the caller's)."""
    job = manager.jobs[job_id]
    for seq, event in enumerate(events, start=start + 1):
        manager.ingest_event(event, source="t", seq=seq)
        if stride and seq % stride == 0:
            manager.run_round(job, cut=False)


def assert_totals(manager, job_id, reference):
    report = manager.job_metrics(job_id)
    assert counts(report) == counts(reference)
    assert report["job"]["work_units"] == reference["job"]["work_units"]
    matches = manager.job_status(job_id)["matches"]["open"]
    assert matches > 0
    assert report["job"]["sink_items"] == matches == reference["job"]["sink_items"]
    return report


#: Round strides (events per worker round; None: the drain's round
#: only) per backend. A round per event on the sharded backend is
#: the latency case's.
STRIDES = {
    "serial": (1, 20, 200, None),
    "sharded-inline": (20, 200, None),
    "sharded-four-lanes": (20, None),
}


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_a_served_job_reports_what_one_execute_reports(backend):
    reference = run_report(one_shot(backend))
    for stride in STRIDES[backend]:
        manager = JobManager(ServiceConfig())
        job_id = manager.submit({**REQUEST, **BACKENDS[backend]})["id"]
        serve(manager, job_id, EVENTS, stride)
        manager.drain()
        assert manager.jobs[job_id].rounds == (len(EVENTS) // stride if stride else 0) + 1
        assert_totals(manager, job_id, reference)


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_a_round_per_event_samples_every_operator_it_feeds(backend):
    """The 1-in-8 latency stride counts the job's events, not a round's:
    at a round per event every operator that received 8 has samples."""
    manager = JobManager(ServiceConfig())
    job_id = manager.submit({**REQUEST, **BACKENDS[backend]})["id"]
    serve(manager, job_id, EVENTS, 1)
    manager.drain()
    report = assert_totals(manager, job_id, run_report(one_shot(backend)))
    fed = {scope: op for scope, op in report["operators"].items() if op["events_in"] >= 8}
    assert fed
    for scope, op in fed.items():
        assert op["latency_s"]["count"] > 0, scope


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_a_new_process_resumes_the_counts(tmp_path, backend):
    config = ServiceConfig(state_dir=str(tmp_path), checkpoint_interval=100)
    half = len(EVENTS) // 2
    first = JobManager(config)
    job_id = first.submit({**REQUEST, **BACKENDS[backend]})["id"]
    serve(first, job_id, EVENTS[:half], 20)
    first.flush(job_id)
    first.run_round(first.jobs[job_id], cut=False)
    serve(first, job_id, EVENTS[half:half + 30], 20, start=half)  # past the cut
    first.stop()

    second = JobManager(config)
    second.resume()
    try:
        serve(second, job_id, EVENTS, 20)  # the producer re-sends it all
        second.drain()
        assert_totals(second, job_id, run_report(one_shot(backend)))
    finally:
        second.stop()


#: Where the crash falls: past the first checkpoint and inside the
#: crashed lane (shard 0 of four lanes reads 132 of the 528 events).
CRASH_AT = {"serial": 180, "sharded-inline": 180, "sharded-four-lanes": 120}


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_a_masked_crash_reports_the_no_fault_counts(backend):
    shard = 0 if backend.startswith("sharded") else None
    clean = one_shot(backend, checkpoint_interval=100)
    crashed = one_shot(
        backend,
        checkpoint_interval=100,
        fault_plan=FaultPlan(
            (FaultSpec("crash", at_event=CRASH_AT[backend], shard=shard),)
        ),
    )
    assert crashed.metrics["recovery"]["restarts"]
    assert counts(run_report(crashed)) == counts(run_report(clean))
    assert crashed.work_units == clean.work_units

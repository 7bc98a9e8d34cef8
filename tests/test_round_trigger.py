"""The one round trigger: a job with queued input gets a round, and a
round is not a cut.

The worker runs a round for every running job that has input queued, one
per job per pass, and sleeps only when none has any; what a round reads
is what arrived while the last one ran. Checkpoints follow their own
cadence — ``checkpoint_interval`` inside rounds, a heartbeat or a flush,
the drain — so a lane's job may stand any number of rounds past its
newest cut, and a crash or a new process replays from that cut to the
same bytes. The last cases pin that a round renders no operator tree
until the stream ends or someone reads the job's metrics.
"""

import logging
import threading
import time

import pytest

from repro.asp.datamodel import Event
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.chaos import canonical_match_bytes
from repro.runtime.service import JobManager, ServiceConfig, jobs
from tests.test_counts_are_totals import BACKENDS
from tests.test_counts_are_totals import EVENTS as OPEN_EVENTS
from tests.test_counts_are_totals import REQUEST as OPEN
from tests.test_live_rounds import build
from tests.test_round_protocol import ENGINES, full_log

CASE = "traffic-congestion"
REQUEST = {"name": "q", "query": {"catalog": CASE, "name": "q"}}


def wait_for(condition, what, timeout=1.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.0005)


def reference(events):
    query, _source = build(CASE, events)
    query.execute()
    return canonical_match_bytes(query.matches())


def served(manager, job_id):
    keys = manager.job_matches(job_id)["queries"]["q"]["keys"]
    return "\n".join(keys).encode("utf-8")


@pytest.fixture()
def manager(monkeypatch):
    """A started manager whose idle worker would sleep 10 s on a missed
    notify: nothing here may lean on the poll."""
    monkeypatch.setattr(jobs, "_IDLE_WAIT_S", 10.0)
    manager = JobManager(ServiceConfig())
    manager.start()
    yield manager
    manager.stop()


def feed_one_by_one(manager, job, events, start=0):
    """A worker round per event: each is processed before the next is sent."""
    for seq, event in enumerate(events, start=start + 1):
        manager.ingest_event(event, source="t", seq=seq)
        wait_for(lambda: job.events_processed >= seq, f"event {seq}")


class TestInputIsTheTrigger:
    def test_no_wake_up_is_lost(self, manager):
        """No heartbeat, no flush: an event alone gets its round — 100 that
        find the worker asleep, then 100 that each land between the pass
        that found nothing queued and the wait that follows it."""
        job = manager.jobs[manager.submit(REQUEST)["id"]]
        events = full_log(CASE)[:200]
        feed_one_by_one(manager, job, events[:100])
        late = list(enumerate(events[100:], start=101))[::-1]
        wants_round = job.wants_round

        def racing():  # runs on the worker, inside its pass
            wanted = wants_round()
            if not wanted and late:
                seq, event = late.pop()
                manager.ingest_event(event, source="t", seq=seq)
            return wanted

        job.wants_round = racing
        manager.kick()
        wait_for(lambda: job.events_processed == 200, "the racing events")
        assert job.rounds == 200 and job.events_read.value == 200
        waits = job.trigger_latency_ms
        assert waits.count == 200 and waits.vmax < 1000.0

    def test_a_round_reads_what_arrived_while_the_last_one_ran(self, manager):
        job = manager.jobs[manager.submit(REQUEST)["id"]]
        events = full_log(CASE)[:41]
        entered, release = threading.Event(), threading.Event()
        run_round = job.runner.run_round

        def held(*args, **kwargs):
            entered.set()
            assert release.wait(5.0)
            return run_round(*args, **kwargs)

        job.runner.run_round = held
        manager.ingest_event(events[0])
        assert entered.wait(1.0)
        queued = time.monotonic()
        for event in events[1:]:
            manager.ingest_event(event)
        held_ms = (time.monotonic() - queued) * 1000.0
        release.set()
        wait_for(lambda: job.events_processed == 41, "the second round")
        assert job.rounds == 2 and job.events_read.value == 41
        sizes = job.events_per_round
        assert (sizes.count, sizes.vmin, sizes.vmax) == (2, 1, 40)
        # A round's trigger latency is its oldest event's wait.
        waits = job.trigger_latency_ms
        assert waits.count == 2 and waits.vmax >= held_ms

    def test_a_busy_job_does_not_starve_a_quiet_one(self, manager):
        busy = manager.jobs[manager.submit({
            "query": "street-lighting-demand", "admission": "block", "queue_limit": 64,
        })["id"]]
        quiet = manager.jobs[manager.submit({"query": "street-lighting-idle"})["id"]]
        stop = threading.Event()

        def producer():  # never lets the busy job's queue run empty
            for index in range(10**9):
                if stop.is_set():
                    return
                manager.ingest_event(Event("Q", 1000 * index, id=index % 4, value=50.0))

        thread = threading.Thread(target=producer)
        thread.start()
        try:
            wait_for(lambda: busy.rounds >= 3, "the busy job's rounds")
            manager.ingest_event(Event("V", 1000, id=1, value=10.0))
            wait_for(lambda: quiet.events_processed == 1, "the quiet job's event")
            assert thread.is_alive()  # the feed never stopped
        finally:
            stop.set()
            thread.join()


class TestARoundIsNotACut:
    @pytest.mark.parametrize("kind", ["memory", "directory"])
    @pytest.mark.parametrize("batch_size", ENGINES)
    def test_cuts_follow_the_cadence_the_heartbeat_and_the_drain(
        self, tmp_path, monkeypatch, kind, batch_size
    ):
        monkeypatch.setattr(jobs, "_IDLE_WAIT_S", 10.0)
        events = full_log(CASE)
        manager = JobManager(ServiceConfig(
            checkpoint_interval=100, batch_size=batch_size,
            state_dir=str(tmp_path) if kind == "directory" else None,
        ))
        manager.start()
        try:
            job_id = manager.submit({**REQUEST, "fault_plan": "crash:at=275"})["id"]
            job = manager.jobs[job_id]
            (lane,) = job.lanes
            feed_one_by_one(manager, job, events[:250])
            # 250 rounds, and the newest cut is the cadence's.
            assert job.rounds == 250 and lane.store.latest().offset == 200
            assert lane.job is not None and lane.job.events_in == 250
            cuts = lane.coordinator.count
            assert cuts == 3  # checkpoint 0, 100, 200

            manager.heartbeat("t", events[249].ts)  # nothing pending: cut only
            wait_for(lambda: lane.coordinator.count == cuts + 1, "the heartbeat's cut")
            assert job.rounds == 250 and lane.store.latest().offset == 250

            # The crash lands 25 uncut rounds past that cut; the round it
            # hit replays 251..275 and goes on.
            feed_one_by_one(manager, job, events[250:299], start=250)
            assert len(job.restarts) == 1
            assert job.restarts[0]["resumed_from_offset"] == 250
            assert job.rounds == 299 and lane.store.latest().offset == 250

            for seq, event in enumerate(events[299:], start=300):
                manager.ingest_event(event, source="t", seq=seq)
            manager.drain()
            assert job.events_processed == len(events)
            assert lane.store.latest().offset == len(events)
            assert served(manager, job_id) == reference(events)
        finally:
            manager.stop()

    @pytest.mark.parametrize("batch_size", ENGINES)
    def test_a_new_process_replays_from_the_heartbeats_cut(
        self, tmp_path, monkeypatch, batch_size
    ):
        """kill −9 with worker-driven rounds and no cadence: the only cut
        on disk is the heartbeat's, many rounds behind where the job stood."""
        monkeypatch.setattr(jobs, "_IDLE_WAIT_S", 10.0)
        events = full_log(CASE)
        config = ServiceConfig(
            state_dir=str(tmp_path), checkpoint_interval=None, batch_size=batch_size
        )
        first = JobManager(config)
        first.start()
        job_id = first.submit(REQUEST)["id"]
        job = first.jobs[job_id]
        feed_one_by_one(first, job, events[:180])
        first.heartbeat("t", events[179].ts)
        wait_for(lambda: job.lanes[0].coordinator.last_offset == 180, "the cut")
        feed_one_by_one(first, job, events[180:300], start=180)
        assert job.events_processed == 300
        assert job.lanes[0].store.latest().offset == 180
        first.stop()  # the process dies here: no drain, no cut

        second = JobManager(config)
        second.start()
        try:
            job = second.jobs[job_id]
            # Progress moves with the cuts: the new process starts at one.
            assert job.events_processed == 180 and job.lanes[0].job is None
            for seq, event in enumerate(events, start=1):
                second.ingest_event(event, source="t", seq=seq)
            assert second.tracker.duplicates == 300
            second.drain()
            assert job.events_processed == len(events)
            assert job.events_read.value == len(events) - 180
            assert served(second, job_id) == reference(events)
        finally:
            second.stop()


def test_every_round_says_why_it_ran(caplog):
    events = full_log(CASE)
    manager = JobManager(ServiceConfig(checkpoint_interval=None))
    job = manager.jobs[manager.submit(REQUEST)["id"]]
    with caplog.at_level(logging.DEBUG, logger="repro"):
        for event in events[:3]:
            manager.ingest_event(event)
        manager.run_round(job, cut=False)
        manager.ingest_event(events[3])
        manager.flush(job.job_id)
        manager.run_round(job, cut=False)
        manager.drain()
    rounds = [r.getMessage() for r in caplog.records if ": round " in r.getMessage()]
    assert rounds == [
        "job-1: round 1 (input) read 3 events, no cut",
        "job-1: round 2 (flush) read 1 events, cut",
        "job-1: round 3 (terminal) read 0 events, cut",
    ]


def test_a_round_carries_no_tree_and_the_job_renders_it_on_read():
    """A non-terminal round's result carries no operator tree; the job
    renders one from its lanes' live counters when read. Every count is a
    total over the log prefix the job has processed, so each read counts
    at least what the one before it did, and the drain round's tree is
    what a read renders."""
    events = full_log(CASE)
    manager = JobManager(ServiceConfig())
    job_id = manager.submit(REQUEST)["id"]
    job = manager.jobs[job_id]
    previous = {}
    for start in range(0, len(events), 173):
        for event in events[start:start + 173]:
            manager.ingest_event(event)
        result = manager.run_round(job)
        assert "operators" not in result.metrics
        report = manager.job_metrics(job_id)
        seen = {scope: op["events_in"] for scope, op in report["operators"].items()}
        assert seen and all(seen[scope] >= count for scope, count in previous.items())
        previous = seen
    assert report["job"]["work_units"] == result.work_units
    tree = job.lanes[0].operator_tree()
    assert previous == {scope: metrics["events_in"]["value"] for scope, metrics in tree.items()}
    for scope, metrics in tree.items():
        assert list(metrics)[:10] == [
            "kind", "events_in", "events_out", "watermark_calls", "latency_s",
            "state_bytes", "state_items", "state_peak_bytes", "state_peak_items",
            "watermark_lag_ms",
        ], scope
        assert metrics["state_peak_bytes"] == {
            "type": "gauge", "value": metrics["state_peak_bytes"]["value"], "agg": "sum",
        }
        assert metrics["watermark_lag_ms"]["agg"] == "max"
        assert all(m["type"] == "counter" for m in list(metrics.values())[10:]), scope
    drained = manager.run_round(job, terminal=True)
    assert drained.metrics["operators"] == job.lanes[0].operator_tree()


@pytest.mark.parametrize("backend", ["serial", "sharded-inline"])
def test_rounds_nobody_reads_render_no_tree(backend, monkeypatch):
    """Fifty non-terminal rounds without a read render the operator tree
    zero times; the first read renders it once per lane."""
    renders = []
    render = SerialJob.operator_tree
    monkeypatch.setattr(
        SerialJob, "operator_tree", lambda job: renders.append(job) or render(job)
    )
    manager = JobManager(ServiceConfig())
    job = manager.jobs[manager.submit({**OPEN, **BACKENDS[backend]})["id"]]
    for start in range(0, 400, 8):
        for event in OPEN_EVENTS[start:start + 8]:
            manager.ingest_event(event)
        assert "operators" not in manager.run_round(job, cut=False).metrics
    assert job.rounds == 50 and renders == []
    assert manager.job_metrics(job.job_id)["operators"]
    assert len(renders) == len(job.lanes)


def test_a_cut_never_runs_past_the_wal(tmp_path):
    """Durable ingest queues an event only after its WAL line: a round
    that runs (and cuts) while the line is being written cannot read it,
    so a kill −9 right after leaves a cut the WAL can replay up to."""
    events = full_log(CASE)
    config = ServiceConfig(state_dir=str(tmp_path), checkpoint_interval=None)
    first = JobManager(config)
    job_id = first.submit(REQUEST)["id"]
    job = first.jobs[job_id]
    for seq, event in enumerate(events[:40], start=1):
        first.ingest_event(event, source="t", seq=seq)

    class Killed(Exception):
        pass

    def round_then_die(records):
        first.run_round(job)  # a round and a cut between admit and WAL line
        raise Killed  # kill −9 before the line lands

    first.state.append_wal = round_then_die
    with pytest.raises(Killed):
        first.ingest_event(events[40], source="t", seq=41)
    (lane,) = job.lanes
    in_wal = sum(job_id in ids for _doc, ids in first.state.replay_wal())
    assert in_wal == 40
    assert lane.store.latest().offset <= in_wal
    first.stop()

    second = JobManager(config)
    second.resume()
    try:
        for seq, event in enumerate(events, start=1):
            second.ingest_event(event, source="t", seq=seq)
        second.drain()
        assert served(second, job_id) == reference(events)
    finally:
        second.stop()

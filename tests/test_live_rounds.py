"""Live rounds: a lane keeps its job between rounds, so a round costs its
new events, and a barrier costs its lines.

``run_lane`` continues the lane's :class:`SerialJob` when it was built
over the same flow object and rebuilds from the lane's newest checkpoint
otherwise (first round, new process, after a crash or a failed round).
This suite pins what that must not change — matches, ``events_in``,
where the cuts sit, what a round's ``RunResult`` means, what a restart
finds on disk — and what it must: a round pulls only its suffix from the
log, builds no job and takes no second checkpoint of the same state.
The wire half: an ingest connection acknowledges what it reads at once,
so a producer that leaves Nagle's algorithm on is answered in the time
the work takes.
"""

import json
import socket
import statistics
import time

import pytest

from repro.asp import graph
from repro.asp.operators.source import LogSource
from repro.asp.runtime import (
    ExecutionSettings,
    FaultPlan,
    FaultSpec,
    InMemoryCheckpointStore,
    SerialBackend,
    open_lanes,
)
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault import recovery
from repro.asp.runtime.fault.chaos import canonical_match_bytes
from repro.experiments.common import Scale, qnv_aq_workload
from repro.mapping.advisor import recommend_options
from repro.mapping.translator import translate
from repro.patterns import CATALOG
from repro.runtime.service import (
    JobManager,
    ServiceClient,
    ServiceConfig,
    event_to_wire,
    start_in_thread,
)
from tests.test_round_protocol import ENGINES, INTERVAL, full_log, no_retry, write_checkpoint

CASES = ("traffic-congestion", "street-lighting-demand", "congestion-cleared")


def build(case, log):
    """The query over one growing log, as ``JobManager`` compiles it."""
    pattern = CATALOG[case]()
    shared = LogSource(log, name="log")
    sources = {t: shared for t in sorted(pattern.distinct_event_types())}
    query = translate(pattern, sources, recommend_options(pattern).options, analyze=False)
    query.attach_sink()
    return query, shared


def slices(events, k):
    return [events[len(events) * i // k: len(events) * (i + 1) // k] for i in range(k)]


def run_rounds(case, k, *, batch_size=1, interval=INTERVAL, plan=None,
               on_crash=no_retry, terminal_last=True):
    """k rounds over a log growing in k slices. Returns the query, its
    source, the lane and the per-round results."""
    log = []
    query, source = build(case, log)
    settings = ExecutionSettings(
        watermark_interval=query.plan.window_slide,
        checkpoint_interval=interval,
        batch_size=batch_size,
    )
    (lane,) = open_lanes(InMemoryCheckpointStore(), interval, plan)
    results = []
    for index, part in enumerate(slices(full_log(case), k)):
        log.extend(part)
        results.append(SerialBackend().run_round(
            query.env.flow, settings, [lane], on_crash,
            terminal=terminal_last and index == k - 1, cut=True,
        ))
    return query, source, lane, results


@pytest.fixture()
def built_jobs(monkeypatch):
    """Every ``SerialJob`` the round protocol constructs, in order."""
    built = []

    class Counted(SerialJob):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(recovery, "SerialJob", Counted)
    return built


class TestARoundReadsItsSuffix:
    @pytest.mark.parametrize("batch_size", ENGINES)
    @pytest.mark.parametrize("case", CASES)
    def test_k_rounds_pull_every_event_once(self, case, batch_size, built_jobs):
        events = full_log(case)
        one_shot, _source = build(case, events)
        reference = one_shot.execute(
            checkpoint_interval=INTERVAL, batch_size=batch_size
        )
        want = canonical_match_bytes(one_shot.matches())
        assert not reference.failed and reference.events_in == len(events)
        del built_jobs[:]
        for k in (3, 7):
            query, source, lane, results = run_rounds(case, k, batch_size=batch_size)
            # The parent pulled the sum of the prefixes.
            assert source.emitted == len(events), k
            assert canonical_match_bytes(query.matches()) == want, k
            assert results[-1].events_in == reference.events_in, k
            assert results[-1].items_out == reference.items_out, k
            assert lane.store.latest().offset == reference.events_in, k
            assert [r.events_in for r in results] == [
                len(events) * (i + 1) // k for i in range(k)
            ], k
        # One job per run of rounds, however many rounds.
        assert len(built_jobs) == 2

    def test_a_flow_that_is_not_the_jobs_rebuilds(self, built_jobs):
        """Identity of the flow object decides, nothing else: a lane
        handed another flow (a sharded round's re-extracted shard)
        restores into a new job."""
        case = "traffic-congestion"
        events = full_log(case)
        first, second = slices(events, 2)
        log = list(first)
        query, _source = build(case, log)
        twin, _twin_source = build(case, log)
        settings = ExecutionSettings(watermark_interval=query.plan.window_slide)
        (lane,) = open_lanes(InMemoryCheckpointStore(), None, None)
        backend = SerialBackend()
        backend.run_round(query.env.flow, settings, [lane], no_retry,
                          terminal=False, cut=True)
        assert lane.job is built_jobs[0]
        log.extend(second)
        result = backend.run_round(twin.env.flow, settings, [lane], no_retry, cut=True)
        assert len(built_jobs) == 2 and lane.job.flow is twin.env.flow
        assert result.events_in == len(events)
        reference, _ = build(case, events)
        reference.execute()
        assert canonical_match_bytes(twin.matches()) == \
            canonical_match_bytes(reference.matches())


class TestCrashDropsTheLiveJob:
    CASE = "traffic-congestion"

    @pytest.mark.parametrize("batch_size", ENGINES)
    def test_retry_restores_then_the_next_round_is_live(self, batch_size, built_jobs):
        events = full_log(self.CASE)
        clean, _source = build(self.CASE, events)
        clean.execute()
        del built_jobs[:]
        boundary = len(events) * 2 // 4  # end of round 2 of 4
        plan = FaultPlan((FaultSpec("crash", at_event=boundary + 5),))
        crashes = []

        def retry(lane, exc, resumed_from):
            crashes.append((exc.at_event, resumed_from, lane.job))
            return True

        query, source, lane, results = run_rounds(
            self.CASE, 4, batch_size=batch_size, interval=None, plan=plan, on_crash=retry
        )
        # Rounds 1-2 on one job; round 3 crashed on it, was retried on a
        # second one restored from round 2's cut; round 4 continued that.
        assert len(built_jobs) == 2
        assert crashes == [(boundary + 5, boundary, None)]
        assert lane.job is built_jobs[1]
        (restart,) = lane.report.restarts
        assert restart.resumed_from_offset == boundary
        assert restart.replayed_events == 4
        assert not results[-1].failed
        assert canonical_match_bytes(query.matches()) == \
            canonical_match_bytes(clean.matches())
        # The retry read round 3's suffix again; the crashed attempt had
        # cut its first batches from it.
        reread = source.emitted - len(events)
        assert 0 < reread <= len(slices(events, 4)[2])


class TestAFailedRoundLeavesNoLiveJob:
    CASE = "traffic-congestion"

    def test_budget_exhausted(self):
        plan = FaultPlan((FaultSpec("crash", at_event=len(full_log(self.CASE)) // 2 + 5),))
        seen = []

        def give_up(lane, _exc, _offset):
            seen.append(lane.job)
            return False

        _query, _source, lane, results = run_rounds(
            self.CASE, 2, interval=None, plan=plan, on_crash=give_up
        )
        assert not results[0].failed and results[1].failed
        assert "injected crash" in results[1].failure
        assert seen == [None] and lane.job is None

    def test_execution_error(self):
        _query, _source, lane, clean = run_rounds(self.CASE, 4, terminal_last=False)
        peaks = [r.peak_state_bytes for r in clean]
        assert max(peaks[1:]) > peaks[0] > 0
        log = []
        query, _source = build(self.CASE, log)
        settings = ExecutionSettings(
            watermark_interval=query.plan.window_slide,
            checkpoint_interval=INTERVAL,
            memory_budget_bytes=peaks[0],
        )
        (lane,) = open_lanes(InMemoryCheckpointStore(), INTERVAL, None)
        for index, part in enumerate(slices(full_log(self.CASE), 4)):
            log.extend(part)
            result = SerialBackend().run_round(
                query.env.flow, settings, [lane], no_retry, terminal=False, cut=True
            )
            if result.failed:
                break
            assert lane.job is not None
        assert index > 0 and result.failed and "budget" in result.failure
        assert lane.job is None


OPEN_REQUEST = {
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


def open_events(count):
    """The first ``count`` Q and V events of a keyed workload, in ts order."""
    streams = qnv_aq_workload(Scale(events=2 * count, sensors=8, seed=1))
    merged = sorted((e for t in ("Q", "V") for e in streams[t]), key=lambda e: e.ts)
    return merged[:count]


class TestAShardLaneIsALane:
    """A sharded job splits once per process and every shard lane
    continues its live job: a round reads, clones and restores what a
    serial round does."""

    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_events_read_counts_each_read_once(self, backend):
        events = open_events(4000)
        manager = JobManager(ServiceConfig())
        job = manager.jobs[manager.submit({**OPEN_REQUEST, "backend": backend})["id"]]
        assert job.backend == backend
        for index, event in enumerate(events, start=1):
            manager.ingest_event(event)
            if index % 37 == 0:
                manager.run_round(job, cut=False)
        manager.drain()
        assert job.events_read.value == job.events_processed == len(events)

    def test_a_round_clones_no_flow_and_restores_no_checkpoint(self, monkeypatch):
        events = open_events(1200)
        manager = JobManager(ServiceConfig())
        job = manager.jobs[manager.submit({**OPEN_REQUEST, "backend": "sharded"})["id"]]
        calls = {"clone": 0, "restore": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(graph, "clone_dataflow", counted("clone", graph.clone_dataflow))
        monkeypatch.setattr(
            recovery, "restore_job_state", counted("restore", recovery.restore_job_state)
        )
        flows = None
        for index, event in enumerate(events, start=1):
            manager.ingest_event(event)
            if index % 40 == 0:
                manager.run_round(job, cut=False)
                if flows is None:
                    flows = [lane.flow for lane in job.lanes]
                    assert calls == {"clone": 2, "restore": 0}
                assert [lane.flow for lane in job.lanes] == flows
                assert all(lane.job is not None for lane in job.lanes)
        assert calls == {"clone": 2, "restore": 0}
        # Cuts follow the cadence (and the drain), not the rounds.
        manager.drain()
        counts = [lane.coordinator.count for lane in job.lanes]
        assert sum(counts) < job.rounds


class TestARoundNeedsARunningJob:
    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_rounds_after_the_budget_ran_out_change_nothing(self, backend):
        events = open_events(600)
        manager = JobManager(ServiceConfig())
        job_id = manager.submit({
            **OPEN_REQUEST, "backend": backend,
            "fault_plan": "crash:at=90", "max_restarts": 0,
        })["id"]
        job = manager.jobs[job_id]
        for index, event in enumerate(events, start=1):
            manager.ingest_event(event)
            if index % 50 == 0:
                manager.run_round(job, cut=False)
        assert job.state == "failed"
        before = manager.job_metrics(job_id)
        status = manager.job_status(job_id)
        assert manager.run_round(job) is None
        assert manager.run_round(job, terminal=True) is None
        after = manager.job_metrics(job_id)
        assert after["operators"] == before["operators"]
        assert after["job"] == before["job"]
        assert manager.job_status(job_id) == status


class TestOneCutPerState:
    CASE = "traffic-congestion"

    def test_count_triggered_rounds_take_one_checkpoint_each(self):
        """A round that ends on a cadence multiple was checkpointed on
        its last event; the boundary cut is that checkpoint."""
        events = full_log(self.CASE)
        k = len(events) // INTERVAL - 1
        log = []
        query, _source = build(self.CASE, log)
        settings = ExecutionSettings(
            watermark_interval=query.plan.window_slide, checkpoint_interval=INTERVAL
        )
        plan = FaultPlan((FaultSpec("crash", at_event=k * INTERVAL + 7),))
        (lane,) = open_lanes(InMemoryCheckpointStore(), INTERVAL, plan)
        for index in range(k):
            log.extend(events[index * INTERVAL:(index + 1) * INTERVAL])
            SerialBackend().run_round(
                query.env.flow, settings, [lane], no_retry, terminal=False, cut=True
            )
            assert lane.store.latest().offset == (index + 1) * INTERVAL
        assert lane.coordinator.count == 1 + k  # checkpoint 0 + one per round

        # The crash in the next round resumes from that checkpoint.
        resumed = []
        log.extend(events[k * INTERVAL:])
        result = SerialBackend().run_round(
            query.env.flow, settings, [lane],
            lambda _lane, _exc, offset: resumed.append(offset) or True, cut=True,
        )
        assert resumed == [k * INTERVAL] and not result.failed
        reference, _ = build(self.CASE, events)
        reference.execute()
        assert canonical_match_bytes(query.matches()) == \
            canonical_match_bytes(reference.matches())

    def test_a_terminal_round_always_cuts(self):
        """The terminal watermark moves state after the last event, so
        the cadence checkpoint at the same offset is not the cut."""
        events = full_log(self.CASE)[:3 * INTERVAL]
        log = list(events)
        query, _source = build(self.CASE, log)
        settings = ExecutionSettings(
            watermark_interval=query.plan.window_slide, checkpoint_interval=INTERVAL
        )
        (lane,) = open_lanes(InMemoryCheckpointStore(), INTERVAL, None)
        SerialBackend().run_round(query.env.flow, settings, [lane], no_retry, cut=True)
        assert lane.coordinator.count == 1 + 3 + 1


class TestARoundsResultIsThatRound:
    @pytest.mark.parametrize("batch_size", ENGINES)
    def test_counts_are_totals_samples_and_wall_are_per_round(self, batch_size):
        """Operator counts are totals of the job: the last round's equal the
        one-shot run's. Samples, wall time and channel frames are the
        round's own."""
        case = "traffic-congestion"
        events = full_log(case)
        one_shot, _ = build(case, events)
        reference = one_shot.execute(batch_size=batch_size, sample_every=50)
        log = []
        query, _source = build(case, log)
        settings = ExecutionSettings(
            watermark_interval=query.plan.window_slide,
            batch_size=batch_size,
            sample_every=50,
        )
        (lane,) = open_lanes(InMemoryCheckpointStore(), None, None)
        results = []
        started = time.perf_counter()
        for index, part in enumerate(slices(events, 5)):
            log.extend(part)
            results.append(SerialBackend().run_round(
                query.env.flow, settings, [lane], no_retry,
                terminal=index == 4, cut=True,
            ))
        elapsed = time.perf_counter() - started

        previous = 0
        for result in results:
            assert result.samples and all(
                previous < s["events_in"] <= result.events_in for s in result.samples
            )
            assert all(s["wall_s"] <= result.wall_seconds for s in result.samples)
            previous = result.events_in
        # Cumulative walls would add up to more than the time that passed.
        assert sum(r.wall_seconds for r in results) <= elapsed
        assert sum(r.wall_seconds for r in results[:-1]) < elapsed

        want = reference.metrics["operators"]
        got = results[-1].metrics["operators"]
        for scope, metrics in want.items():
            for name in ("events_in", "events_out", "watermark_calls"):
                assert got[scope][name] == metrics[name], (scope, name)
        assert results[-1].work_units == reference.work_units
        frames = [r.metadata["channels"]["item_frames"] for r in results]
        assert sum(frames) == reference.metadata["channels"]["item_frames"]


def canonical(keys):
    return "\n".join(keys).encode("utf-8")


class TestResumeFindsWhatItFound:
    CASE = "traffic-congestion"
    REQUEST = {"name": "q", "query": {"catalog": CASE, "name": "q"}}

    def reference(self, events):
        query, _ = build(self.CASE, events)
        query.execute()
        return canonical_match_bytes(query.matches())

    @pytest.mark.parametrize("batch_size", ENGINES)
    def test_a_fresh_manager_over_the_same_state_dir(self, tmp_path, batch_size, built_jobs):
        events = full_log(self.CASE)
        config = ServiceConfig(
            state_dir=str(tmp_path), batch_size=batch_size
        )
        first = JobManager(config)
        job_id = first.submit(self.REQUEST)["id"]
        cut = len(events) * 3 // 5
        for seq, event in enumerate(events[:cut], start=1):
            first.ingest_event(event, source="t", seq=seq)
            if first.jobs[job_id].pending >= 150:
                first.run_round(first.jobs[job_id])
        processed = first.jobs[job_id].events_processed
        assert 0 < processed <= cut and len(built_jobs) == 1
        on_disk = first.jobs[job_id].lanes[0].store.latest().offset
        assert on_disk == processed
        first.state.close()  # the process dies here; nothing is drained

        second = JobManager(config)
        second.resume()
        job = second.jobs[job_id]
        assert job.lanes[0].job is None and job.events_processed == processed
        for seq, event in enumerate(events, start=1):
            second.ingest_event(event, source="t", seq=seq)
            if job.pending >= 150:
                second.run_round(job)
        assert second.tracker.duplicates == cut
        second.drain()
        second.stop()
        # One job before the kill, one restored after it, none per round.
        assert len(built_jobs) == 2 and job.rounds > 3
        keys = second.job_matches(job_id)["queries"]["q"]["keys"]
        assert canonical(keys) == self.reference(events)
        assert job.events_processed == len(events)
        assert job.events_read.value == len(events) - processed

    def test_a_parent_layout_state_dir_written_by_hand(self, tmp_path):
        """Manifest, progress, WAL and the checkpoint chain as the parent
        commit's server left them, file by file."""
        events = full_log(self.CASE)
        durable = events[: len(events) // 2]
        scratch = JobManager(ServiceConfig())._build_job(self.REQUEST, "job-1")
        scratch.log.extend(durable)
        job = SerialJob(scratch.compiled.env.flow, scratch.settings)
        job.run(terminal_watermark=False)
        scope = tmp_path / "job-1"
        write_checkpoint(scope, job)
        (scope / "job.json").write_text(
            json.dumps({"job_id": "job-1", "request": self.REQUEST})
        )
        (scope / "state.json").write_text(json.dumps({
            "state": "running", "events_processed": len(durable), "rounds": 1,
        }))
        with (tmp_path / "ingest.wal").open("w", encoding="utf-8") as wal:
            for seq, event in enumerate(durable, start=1):
                doc = {"event": event_to_wire(event, "t", seq), "jobs": ["job-1"]}
                wal.write(json.dumps(doc, sort_keys=True) + "\n")

        manager = JobManager(ServiceConfig(state_dir=str(tmp_path)))
        manager.resume()
        assert manager.resumed == {"jobs": ["job-1"], "wal_events": len(durable)}
        resumed = manager.jobs["job-1"]
        for seq, event in enumerate(events, start=1):
            manager.ingest_event(event, source="t", seq=seq)
            if resumed.pending >= 100:
                manager.run_round(resumed)
        manager.drain()
        manager.stop()
        keys = manager.job_matches("job-1")["queries"]["q"]["keys"]
        assert canonical(keys) == self.reference(events)
        assert resumed.events_read.value == len(events) - len(durable)


class TestMatchKeysAreRenderedOnce:
    CASE = "traffic-congestion"

    def test_keys_follow_the_sink_through_rounds_and_a_restore(self):
        events = full_log(self.CASE)
        manager = JobManager(ServiceConfig())
        boundary = 300
        info = manager.submit({
            "name": "q", "query": {"catalog": self.CASE, "name": "q"},
            "fault_plan": f"crash:at={boundary + 20}",
        })
        job = manager.jobs[info["id"]]
        sink = job.compiled.sinks[0]
        served = []
        for index, event in enumerate(events, start=1):
            manager.ingest_event(event)
            if index % 100 == 0:
                before = sink.items
                manager.run_round(job)
                keys = manager.job_matches(job.job_id)["queries"]["q"]["keys"]
                assert canonical(keys) == canonical_match_bytes(job.compiled.matches_of(0))
                served.append((sink.items is before, len(keys)))
        manager.drain()
        keys = manager.job_matches(job.job_id)["queries"]["q"]["keys"]
        reference, _ = build(self.CASE, events)
        reference.execute()
        assert canonical(keys) == canonical_match_bytes(reference.matches())
        assert len(job.restarts) == 1
        # The crash's restore replaced the sink's list exactly once.
        assert [same for same, _count in served].count(False) == 1
        assert keys is not manager.job_matches(job.job_id)["queries"]["q"]["keys"]
        manager.stop()

    def test_sharded_folds_and_a_frozen_tenant(self):
        events = full_log(self.CASE)
        manager = JobManager(ServiceConfig())
        info = manager.submit({
            "name": "pair",
            "queries": [
                {"catalog": self.CASE, "name": "a", "options": {"o3": "id"}},
                {"catalog": self.CASE, "name": "b", "options": {"o3": "id"}},
            ],
            "backend": "sharded",
        })
        job = manager.jobs[info["id"]]
        assert job.backend == "sharded"
        frozen = None
        for index, event in enumerate(events, start=1):
            manager.ingest_event(event)
            if index % 100 == 0:
                manager.run_round(job)
                doc = manager.job_matches(job.job_id)["queries"]
                assert canonical(doc["a"]["keys"]) == \
                    canonical_match_bytes(job.compiled.matches_of(0))
                if index == 400:
                    manager.cancel_tenant(job.job_id, "b")
                    frozen = manager.job_matches(job.job_id)["queries"]["b"]["keys"]
                    assert frozen == doc["b"]["keys"]
        manager.drain()
        doc = manager.job_matches(job.job_id)["queries"]
        reference, _ = build(self.CASE, events)
        reference.execute()
        assert canonical(doc["a"]["keys"]) == canonical_match_bytes(reference.matches())
        assert doc["b"]["keys"] == frozen and doc["b"]["tenant_state"] == "cancelled"
        manager.stop()


needs_quickack = pytest.mark.skipif(
    not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK on this platform"
)


class TestWire:
    @pytest.fixture()
    def handle(self):
        service = start_in_thread(ServiceConfig())
        try:
            yield service
        finally:
            service.stop()

    @staticmethod
    def wire_lines(count):
        events = full_log("traffic-congestion")[:count]
        return [
            (json.dumps(event_to_wire(event, "w", seq)) + "\n").encode()
            for seq, event in enumerate(events, start=1)
        ]

    @needs_quickack
    def test_a_barrier_costs_its_lines_not_a_delayed_ack(self, handle):
        """A producer that leaves Nagle on and writes a batch, then the
        barrier: the barrier leaves its kernel when the batch is
        acknowledged, which the parent delayed by 40 ms."""
        ServiceClient(handle.host, handle.http_port).submit(
            {"query": "traffic-congestion"}
        )
        lines = self.wire_lines(250)
        answered_ms = []
        with socket.create_connection((handle.host, handle.tcp_port), timeout=30) as sock:
            assert not sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            reader = sock.makefile("rb")
            for _ in range(10):
                started = time.perf_counter()
                sock.sendall(b"".join(lines))  # re-sends dedup: decode + admit only
                sock.sendall(b'{"op": "sync"}\n')
                barrier = json.loads(reader.readline())
                answered_ms.append((time.perf_counter() - started) * 1000.0)
                assert barrier["sync"]["errors"] == []
        assert barrier["sync"]["accepted"] + barrier["sync"]["duplicates"] == 2500
        assert statistics.median(answered_ms) < 30.0, answered_ms

    def test_malformed_and_torn_lines_mid_connection(self, handle):
        """As ``test_service_live`` pins them, on a connection that also
        carries batches and barriers."""
        client = ServiceClient(handle.host, handle.http_port)
        client.submit({"query": "traffic-congestion"})
        lines = self.wire_lines(60)
        with socket.create_connection((handle.host, handle.tcp_port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"".join(lines[:20]) + b'{"op": "sync"}\n')
            assert json.loads(reader.readline())["sync"]["accepted"] == 20
            sock.sendall(b"garbage\n" + b"".join(lines[20:40]) + lines[40][:25])
            time.sleep(0.2)  # the read returns with half a line
            sock.sendall(lines[40][25:] + b'{"type": "Q"}\n' + b'{"op": "sync"}\n')
            replies = [json.loads(reader.readline()) for _ in range(3)]
            assert replies[0]["error"]["code"] == "bad-json"
            assert replies[0]["error"]["line"] == 22
            assert replies[1]["error"]["code"] == "bad-event"
            assert replies[1]["error"]["line"] == 44
            assert replies[2]["sync"]["accepted"] == 41
            assert len(replies[2]["sync"]["errors"]) == 2
            sock.sendall(lines[41].rstrip(b"\n"))  # no newline, then EOF
            sock.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + 10
        while True:
            status = client.job("traffic-congestion")
            if status["queue_depth"] + status["events_logged"] == 42:
                break
            assert time.monotonic() < deadline, "last line was dropped"
            time.sleep(0.02)

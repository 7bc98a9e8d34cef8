"""The round protocol: ``execute`` is one terminal round of the same entry
``repro serve`` runs many of.

Every backend exposes ``run_round(flow, settings, lanes, on_crash,
terminal=, cut=)``; ``execute`` is that round once, terminal, on fresh
lanes. This suite holds the two spellings together over the catalog:
one-shot ≡ k incremental rounds (match bytes, ``events_in``, where the
final checkpoints sit), a crash mid-round restarts from the lane's
latest checkpoint in both, an exhausted restart budget fails both, and
the on-disk lane scopes (``<job>/``, ``<job>/shard-i/``) are the ones
existing state directories already hold.
"""

import json

import pytest

from repro.asp.graph import extract_shards
from repro.asp.operators.keyby import key_by_attribute
from repro.asp.operators.source import GeneratorSource
from repro.asp.runtime import (
    ExecutionSettings,
    FaultPlan,
    FaultSpec,
    InMemoryCheckpointStore,
    SerialBackend,
    ShardedBackend,
    open_lanes,
)
from repro.asp.runtime.backends.base import DEFAULT_BATCH_SIZE
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.chaos import canonical_match_bytes
from repro.asp.runtime.fault.checkpoint import capture_job_state, sink_outputs
from repro.asp.runtime.fault.store import pickle_payload
from repro.experiments.common import Scale, qnv_aq_workload
from repro.mapping.advisor import recommend_options
from repro.mapping.translator import translate
from repro.patterns import CATALOG
from repro.runtime.service import JobManager, ServiceConfig, event_to_wire

KEY = "id"
INTERVAL = 100
#: Batches of one, and the size ``repro run`` and ``serve`` default to.
ENGINES = [1, DEFAULT_BATCH_SIZE]
STREAMS = qnv_aq_workload(Scale(events=800, sensors=4, seed=7))

#: name -> (pattern factory, options, shardable). Every catalog query is
#: shardable on its O3-keyed plan; ``congestion-cleared`` on the advisor's
#: un-keyed plan is not (its next-occurrence operator holds cross-key state).
CASES = {
    name: (factory, recommend_options(factory(), partition_attribute=KEY).options, True)
    for name, factory in sorted(CATALOG.items())
}
CASES["congestion-cleared/unkeyed"] = (
    CATALOG["congestion-cleared"],
    recommend_options(CATALOG["congestion-cleared"]()).options,
    False,
)

BACKENDS = {
    "serial": SerialBackend,
    "sharded-inline": lambda: ShardedBackend(2, KEY),
    # A lane per sensor key: a finer split than two lanes, kept and
    # grown across rounds the same way.
    "sharded-four-lanes": lambda: ShardedBackend(4, KEY),
}


def backend_cases():
    for case, (_factory, _options, shardable) in CASES.items():
        yield pytest.param(case, "serial", id=f"{case}-serial")
        if shardable:
            yield pytest.param(case, "sharded-inline", id=f"{case}-inline")
            yield pytest.param(
                case, "sharded-four-lanes", id=f"{case}-four-lanes"
            )


def full_log(case):
    """The arrival-ordered log a serve job of this query would hold."""
    types = CASES[case][0]().distinct_event_types()
    return sorted(
        (event for t in sorted(types) for event in STREAMS[t]),
        key=lambda event: event.ts,
    )


def build(case, log):
    """The query over one growing log, as ``JobManager`` compiles it."""
    factory, options, _shardable = CASES[case]
    pattern = factory()
    shared = GeneratorSource(lambda: list(log), name="log")
    sources = {t: shared for t in sorted(pattern.distinct_event_types())}
    query = translate(pattern, sources, options, analyze=False)
    query.attach_sink()
    return query


def no_retry(_lane, exc, _offset):
    raise AssertionError(f"unexpected crash: {exc}")


def run_in_rounds(case, backend, k, *, batch_size=1, interval=INTERVAL,
                  plan=None, on_crash=no_retry):
    """k incremental rounds over a log growing in k slices; returns the
    query, the last round's result, the lanes and, per round, where each
    lane's latest checkpoint sat afterwards."""
    events = full_log(case)
    log = []
    query = build(case, log)
    settings = ExecutionSettings(
        watermark_interval=query.plan.window_slide,
        checkpoint_interval=interval,
        batch_size=batch_size,
    )
    lanes = open_lanes(InMemoryCheckpointStore(), interval, plan, backend.shards)
    cuts = []
    for index in range(k):
        log.extend(events[len(events) * index // k: len(events) * (index + 1) // k])
        result = backend.run_round(
            query.env.flow, settings, lanes, on_crash,
            terminal=index == k - 1, cut=True,
        )
        cuts.append([lane.store.latest().offset for lane in lanes])
    return query, result, lanes, cuts


def lane_events(result):
    """Per lane, how many source events the run consumed."""
    return result.metadata.get("shard_events_in", [result.events_in])


class TestOneShotEqualsRounds:
    @pytest.mark.parametrize("batch_size", ENGINES)
    @pytest.mark.parametrize("case, backend_name", backend_cases())
    def test_execute_equals_k_rounds(self, case, backend_name, batch_size):
        backend = BACKENDS[backend_name]()
        one_shot = build(case, full_log(case))
        reference = one_shot.execute(
            backend=backend, checkpoint_interval=INTERVAL, batch_size=batch_size
        )
        want = canonical_match_bytes(one_shot.matches())
        assert not reference.failed and reference.events_in > 0
        for k in (1, 3, 7):
            query, result, _lanes, cuts = run_in_rounds(
                case, backend, k, batch_size=batch_size
            )
            assert canonical_match_bytes(query.matches()) == want, k
            assert result.events_in == reference.events_in, k
            # The last round-boundary cut of every lane sits exactly
            # where the one-shot run's lane ended.
            assert cuts[-1] == lane_events(reference), k


def crash_plan(backend, at_event):
    shard = 0 if backend.shards is not None else None
    return FaultPlan((FaultSpec("crash", at_event=at_event, shard=shard),))


CRASH_BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("sharded-inline", id="sharded"),
]


class TestCrashMidRound:
    CASE = "traffic-congestion"

    def clean_bytes(self):
        query = build(self.CASE, full_log(self.CASE))
        query.execute()
        return canonical_match_bytes(query.matches())

    @pytest.mark.parametrize("backend_name", CRASH_BACKENDS)
    def test_execute_restarts_from_the_latest_cadence_checkpoint(self, backend_name):
        backend = BACKENDS[backend_name]()
        query = build(self.CASE, full_log(self.CASE))
        result = query.execute(
            backend=backend,
            checkpoint_interval=INTERVAL,
            fault_plan=crash_plan(backend, 123),
        )
        assert not result.failed
        assert canonical_match_bytes(query.matches()) == self.clean_bytes()

        recovery = result.metrics["recovery"]
        report = recovery["shards"][0] if backend.shards else recovery
        assert set(report) - {"shard"} == {"attempts", "recovered", "restarts"}
        assert report["attempts"] == 2 and report["recovered"] is True
        assert report["restarts"] == [{
            "attempt": 1,
            "failed_at_event": 123,
            "resumed_from_offset": 100,
            "replayed_events": 22,
        }]
        if backend.shards:
            assert recovery["attempts"] == 3 and recovery["restarts"] == 1
            assert recovery["recovered"] is True

        # Checkpoint 0 plus one per cadence multiple per lane, each taken
        # once — and no cut at the end of the run.
        checkpoints = result.metrics["checkpoints"]
        keys = {"count", "bytes_total", "interval", "duration", "duration_p95_s"}
        assert set(checkpoints) == keys | ({"shards"} if backend.shards else set())
        assert checkpoints["interval"] == INTERVAL
        assert checkpoints["count"] == sum(
            1 + events // INTERVAL for events in lane_events(result)
        )
        assert checkpoints["duration"]["count"] == checkpoints["count"]
        for shard in checkpoints.get("shards", []):
            assert set(shard) == keys | {"shard"}

    def test_execute_takes_no_cut_at_the_end_of_the_run(self):
        store = InMemoryCheckpointStore()
        query = build(self.CASE, full_log(self.CASE))
        result = query.execute(checkpoint_interval=INTERVAL, checkpoint_store=store)
        assert result.events_in % INTERVAL  # the run ends between cadence cuts
        assert store.latest().offset == result.events_in // INTERVAL * INTERVAL

    @pytest.mark.parametrize("backend_name", CRASH_BACKENDS)
    def test_round_restarts_from_the_round_boundary_cut(self, backend_name):
        backend = BACKENDS[backend_name]()
        # A clean pass tells where lane 0's round-1 boundary cut sits.
        _query, _result, _lanes, cuts = run_in_rounds(
            self.CASE, backend, 3, interval=None
        )
        boundary = cuts[0][0]
        crashes = []

        def retry(lane, exc, resumed_from):
            crashes.append((lane.shard, exc.at_event, resumed_from))
            return True

        query, result, lanes, crashed_cuts = run_in_rounds(
            self.CASE, backend, 3, interval=None,
            plan=crash_plan(backend, boundary + 5), on_crash=retry,
        )
        assert not result.failed
        assert canonical_match_bytes(query.matches()) == self.clean_bytes()
        assert crashes == [(lanes[0].shard, boundary + 5, boundary)]
        (restart,) = lanes[0].report.restarts
        assert restart.resumed_from_offset == boundary
        assert restart.replayed_events == 4
        assert crashed_cuts == cuts  # the crash moved no checkpoint


class TestRestartBudget:
    CASE = "traffic-congestion"

    @pytest.mark.parametrize("backend_name", CRASH_BACKENDS)
    def test_execute_returns_a_failed_result(self, backend_name):
        backend = BACKENDS[backend_name]()
        query = build(self.CASE, full_log(self.CASE))
        result = query.execute(
            backend=backend,
            checkpoint_interval=INTERVAL,
            fault_plan=crash_plan(backend, 50),
            max_restarts=0,
        )
        assert result.failed
        assert "injected crash before event 50" in result.failure
        recovery = result.metrics["recovery"]
        report = recovery["shards"][0] if backend.shards else recovery
        assert report["attempts"] == 1 and report["recovered"] is False

    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_serve_fails_the_job(self, backend):
        manager = JobManager(ServiceConfig())
        info = manager.submit({
            "name": "doomed",
            "query": {"catalog": self.CASE, "name": "doomed",
                      "options": {"o3": KEY}},
            "backend": backend,
            "fault_plan": "crash:at=50",
            "max_restarts": 0,
        })
        assert info["backend"] == backend
        for event in full_log(self.CASE):
            manager.ingest_event(event)
        job = manager.jobs[info["id"]]
        assert manager.run_round(job) is None
        status = manager.job_status(info["id"])
        assert status["state"] == "failed" and status["rounds"] == 0
        assert "restart budget exhausted" in job.failure
        assert status["restarts"] == 1


def parent_format_state(job):
    """A job's state as the commit before the output journal captured it:
    each retaining sink's snapshot carries its list, and no count."""
    state = capture_job_state(job)
    del state["journalled"]
    for node_id, retained in sink_outputs(job.flow).items():
        retains = job.flow.nodes[node_id].operator.retains
        state["operators"][node_id][retains] = list(retained)
    return state


def write_checkpoint(directory, job):
    """One checkpoint of ``job`` in the directory store's layout as that
    commit left it, by hand: a whole-sink payload and no journal."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "chk-handmade-0.pickle").write_bytes(
        pickle_payload(parent_format_state(job))
    )
    (directory / "manifest.json").write_text(json.dumps([
        {"checkpoint_id": 0, "offset": job.events_in, "file": "chk-handmade-0.pickle"}
    ]))


class TestExistingStateDirsResume:
    """A state dir as the parent commit's server left it after a kill:
    manifest, progress, WAL and checkpoint chains written here file by
    file — the serial chain in ``<job>/``, shard chains in
    ``<job>/shard-i/``."""

    CASE = "traffic-congestion"

    @pytest.mark.parametrize("batch_size", ENGINES)
    @pytest.mark.parametrize("backend, shards", [("serial", None), ("sharded", 2)])
    def test_hand_written_state_dir_resumes(self, tmp_path, backend, shards, batch_size):
        request = {
            "name": "old",
            "query": {"catalog": self.CASE, "name": "old", "options": {"o3": KEY}},
            "backend": backend,
            "shards": 2,
            "shard_mode": "inline",
            "batch_size": batch_size,
        }
        events = full_log(self.CASE)
        durable = events[: len(events) // 2]

        # The state the killed server had checkpointed: one non-terminal
        # round over the durable prefix, captured per lane.
        scratch = JobManager(ServiceConfig())._build_job(request, "job-1")
        scratch.log.extend(durable)
        flow = scratch.compiled.env.flow
        lane_flows = (
            [flow] if shards is None
            else extract_shards(flow, shards, key_by_attribute(KEY))
        )
        offsets = []
        for index, lane_flow in enumerate(lane_flows):
            job = SerialJob(lane_flow, scratch.settings)
            job.run(terminal_watermark=False)
            scope = tmp_path / "job-1"
            if shards is not None:
                scope = scope / f"shard-{index}"
            write_checkpoint(scope, job)
            offsets.append(job.events_in)
        (tmp_path / "job-1" / "job.json").write_text(
            json.dumps({"job_id": "job-1", "request": request})
        )
        (tmp_path / "job-1" / "state.json").write_text(json.dumps({
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
        assert resumed.backend == backend
        assert [lane.store.latest().offset for lane in resumed.lanes] == offsets

        for seq, event in enumerate(events, start=1):
            manager.ingest_event(event, source="t", seq=seq)
        assert manager.tracker.duplicates == len(durable)
        manager.drain()
        # The first round after the restart replayed from the hand-written
        # cut, not from offset 0.
        chain = manager.job_checkpoints("job-1")["entries"]
        assert min(entry["offset"] for entry in chain) >= min(offsets)
        reference = build(self.CASE, events)
        reference.execute()
        keys = manager.job_matches("job-1")["queries"]["old"]["keys"]
        assert "\n".join(keys).encode("utf-8") == \
            canonical_match_bytes(reference.matches())

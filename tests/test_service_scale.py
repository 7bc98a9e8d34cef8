"""The scaled serve data plane: sharded rounds, tenant groups, resume.

In-process coverage of the PR 9 features: backend auto-selection from
the partition-safety proof, byte-identity of sharded incremental rounds
against one-shot batch runs (inline and process dispatch), per-tenant
cancel isolation inside shared-scan groups, SLO-triggered rounds, the
durable restart/resume protocol (manifests + progress + ingestion WAL),
the client's transient-error backoff, and the ``SourceTracker``
snapshot/restore property. Live-socket restart coverage is
``tools/serve_smoke.py --kill-after`` (the ``serve-restart`` CI job).
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.operators.source import ListSource
from repro.asp.runtime import ExecutionSettings, SerialBackend
from repro.asp.runtime.fault.chaos import canonical_match_bytes
from repro.errors import ServiceError
from repro.experiments.common import Scale, qnv_aq_workload
from repro.mapping.advisor import recommend_options
from repro.mapping.translator import translate
from repro.patterns import CATALOG
from repro.runtime.service import (
    JobManager,
    ServiceConfig,
    ServiceState,
    SourceTracker,
    backoff_schedule,
    merge_streams_for_wire,
)
from repro.sea.parser import parse_pattern

SHARDABLE = ("PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES")


def offset_streams(events=900, sensors=6, seed=11):
    streams = {
        t: list(evs)
        for t, evs in qnv_aq_workload(
            Scale(events=events, sensors=sensors, seed=seed)
        ).items()
    }
    for offset, evs in enumerate(streams.values()):
        for event in evs:
            event.ts += offset
    return streams


def batch_reference(query_name, streams):
    pattern = CATALOG[query_name]()
    options = recommend_options(pattern).options
    sources = {
        t: ListSource(streams[t], name=f"batch[{t}]", event_type=t)
        for t in pattern.distinct_event_types()
    }
    query = translate(pattern, sources, options)
    query.attach_sink()
    SerialBackend().execute(
        query.env.flow,
        ExecutionSettings(watermark_interval=query.plan.window_slide),
    )
    return canonical_match_bytes(query.matches())


def batch_reference_inline(pattern_text, streams, *, o3):
    from repro.mapping.optimizations import TranslationOptions

    pattern = parse_pattern(pattern_text, name="inline-ref")
    sources = {
        t: ListSource(streams[t], name=f"batch[{t}]", event_type=t)
        for t in pattern.distinct_event_types()
    }
    query = translate(
        pattern, sources, TranslationOptions(partition_attribute=o3)
    )
    query.attach_sink()
    SerialBackend().execute(
        query.env.flow,
        ExecutionSettings(watermark_interval=query.plan.window_slide),
    )
    return canonical_match_bytes(query.matches())


def ingest_all(manager, streams, source="t", start_seq=1):
    seq = start_seq
    for event in merge_streams_for_wire(streams):
        manager.ingest_event(event, source=source, seq=seq)
        seq += 1
    return seq


def served_bytes(manager, job_id, query_name):
    keys = manager.job_matches(job_id)["queries"][query_name]["keys"]
    return "\n".join(keys).encode("utf-8")


def take(tracker, source, seq):
    """One line through the dedup gate of a consumer that takes every
    new event: check it, then advance the horizon past it."""
    new = tracker.check(source, seq)
    if new:
        tracker.advance(source, seq)
    return new


def sharded_submit(name="sharded", **overrides):
    body = {
        "name": name,
        "query": {"pattern": SHARDABLE, "name": name, "options": {"o3": "id"}},
    }
    body.update(overrides)
    return body


class TestBackendSelection:
    def test_o3_submission_auto_selects_sharded(self):
        manager = JobManager(ServiceConfig(job_shards=3))
        info = manager.submit(sharded_submit())
        assert info["backend"] == "sharded"
        assert info["shards"] == 3

    def test_default_submission_stays_serial(self):
        manager = JobManager()
        info = manager.submit({"query": "traffic-congestion"})
        assert info["backend"] == "serial"
        assert info["shards"] is None

    def test_explicit_sharded_without_o3_is_rejected(self):
        with pytest.raises(ServiceError) as err:
            JobManager().submit(
                {"query": "traffic-congestion", "backend": "sharded"}
            )
        assert err.value.code == "not-shardable"
        assert err.value.status == 400

    def test_explicit_serial_overrides_the_proof(self):
        manager = JobManager()
        info = manager.submit(sharded_submit(backend="serial"))
        assert info["backend"] == "serial"

    def test_mismatched_partition_keys_never_shard(self):
        # Different key attributes across the co-submission: "auto" must
        # degrade to serial (no common hash split exists).
        manager = JobManager()
        info = manager.submit(
            {"queries": [
                {"pattern": SHARDABLE, "name": "by-id",
                 "options": {"o3": "id"}},
                {"pattern": "PATTERN SEQ(V a, V b) WHERE a.id = b.id "
                            "WITHIN 10 MINUTES",
                 "name": "plain"},
            ]}
        )
        assert info["backend"] == "serial"


class TestShardedRounds:
    def test_sharded_rounds_match_batch_bytes(self):
        streams = offset_streams()
        manager = JobManager(
            ServiceConfig(checkpoint_interval=100)
        )
        info = manager.submit(sharded_submit(name="shard-eq", shards=3))
        assert info["backend"] == "sharded"
        ingest_all(manager, streams)
        manager.run_round(manager.jobs[info["id"]])  # mid-stream round
        manager.drain()
        status = manager.job_status(info["id"])
        assert status["state"] == "drained"
        assert status["rounds"] >= 2
        assert served_bytes(manager, info["id"], "shard-eq") == \
            batch_reference_inline(SHARDABLE, streams, o3="id")

    def test_a_round_every_few_events_matches_batch_bytes(self):
        """The split is kept across rounds: twenty small rounds, each
        routing only the events that arrived since the last, serve the
        batch run's bytes."""
        streams = offset_streams(events=500, seed=7)
        manager = JobManager(ServiceConfig())
        info = manager.submit(sharded_submit(name="shard-live", shards=2))
        job = manager.jobs[info["id"]]
        seq = 1
        for event in merge_streams_for_wire(streams):
            manager.ingest_event(event, source="t", seq=seq)
            if seq % 25 == 0:
                manager.run_round(job, cut=False)
            seq += 1
        manager.drain()
        assert manager.job_status(info["id"])["rounds"] == (seq - 1) // 25 + 1
        assert served_bytes(manager, info["id"], "shard-live") == \
            batch_reference_inline(SHARDABLE, streams, o3="id")

    def test_sharded_checkpoints_per_shard(self, tmp_path):
        streams = offset_streams(events=500, seed=3)
        manager = JobManager(
            ServiceConfig(checkpoint_interval=None,
                          state_dir=str(tmp_path))
        )
        info = manager.submit(sharded_submit(name="shard-chk", shards=2))
        ingest_all(manager, streams)
        manager.drain()
        doc = manager.job_checkpoints(info["id"])
        assert doc["durable"] and doc["backend"] == "sharded"
        shards_seen = {entry["shard"] for entry in doc["entries"]}
        assert shards_seen == {0, 1}
        assert doc["coordinator"]["count"] == len(doc["entries"])

    def test_checkpoint_documents_have_one_shape(self):
        """Serial and sharded jobs report checkpoint overhead under the
        same keys (a sharded job adds the per-shard list), on both read
        endpoints."""
        streams = offset_streams(events=400, seed=3)
        manager = JobManager(ServiceConfig())
        serial = manager.submit({"query": "traffic-congestion"})
        sharded = manager.submit(sharded_submit(name="shard-doc", shards=2))
        ingest_all(manager, streams)
        manager.drain()
        keys = {"count", "bytes_total", "interval", "duration", "duration_p95_s"}
        for info, expected in ((serial, keys), (sharded, keys | {"shards"})):
            chain = manager.job_checkpoints(info["id"])["coordinator"]
            metrics = manager.job_metrics(info["id"])["service"]["checkpoints"]
            assert set(chain) == set(metrics) == expected
            assert chain["count"] == metrics["count"] > 0
            assert chain["duration"]["count"] == chain["count"]
        shards = manager.job_checkpoints(sharded["id"])["coordinator"]["shards"]
        assert [shard["shard"] for shard in shards] == [0, 1]
        assert all(set(shard) == keys | {"shard"} for shard in shards)


class TestTenantGroups:
    GROUP = ("traffic-congestion", "street-lighting-demand")

    def submit_group(self, manager):
        return manager.submit({"name": "group", "queries": list(self.GROUP)})

    def test_cancelling_one_tenant_preserves_the_others_bytes(self):
        streams = offset_streams()
        manager = JobManager(ServiceConfig())
        info = self.submit_group(manager)
        half = {t: evs[: len(evs) // 2] for t, evs in streams.items()}
        rest = {t: evs[len(evs) // 2:] for t, evs in streams.items()}
        next_seq = ingest_all(manager, half)
        manager.run_round(manager.jobs[info["id"]])

        status = manager.cancel_tenant(info["id"], "street-lighting-demand")
        assert status["state"] == "running"
        assert status["tenants"]["street-lighting-demand"] == "cancelled"
        frozen = served_bytes(manager, info["id"], "street-lighting-demand")

        ingest_all(manager, rest, start_seq=next_seq)
        manager.drain()
        doc = manager.job_matches(info["id"])
        # The survivor's output is byte-identical to its solo batch run.
        assert served_bytes(manager, info["id"], "traffic-congestion") == \
            batch_reference("traffic-congestion", streams)
        assert doc["queries"]["traffic-congestion"]["tenant_state"] == "running"
        # The cancelled tenant stays frozen at its cancel-time snapshot.
        assert served_bytes(manager, info["id"], "street-lighting-demand") == \
            frozen
        assert doc["queries"]["street-lighting-demand"]["tenant_state"] == \
            "cancelled"

    def test_cancelling_every_tenant_cancels_the_job(self):
        manager = JobManager()
        info = self.submit_group(manager)
        manager.cancel_tenant(info["id"], "traffic-congestion")
        status = manager.cancel_tenant(info["id"], "street-lighting-demand")
        assert status["state"] == "cancelled"

    def test_unknown_tenant_is_404(self):
        manager = JobManager()
        info = self.submit_group(manager)
        with pytest.raises(ServiceError) as err:
            manager.cancel_tenant(info["id"], "nope")
        assert err.value.status == 404


class TestDurableResume:
    CONFIG = dict(checkpoint_interval=100)

    def test_restart_resumes_and_replay_is_byte_identical(self, tmp_path):
        streams = offset_streams()
        all_events = list(merge_streams_for_wire(streams))
        cut = len(all_events) * 2 // 3
        config = ServiceConfig(state_dir=str(tmp_path), **self.CONFIG)

        first = JobManager(config)
        info = first.submit({"query": "traffic-congestion"})
        for seq, event in enumerate(all_events[:cut], start=1):
            first.ingest_event(event, source="t", seq=seq)
        first.run_round(first.jobs[info["id"]])
        before = first.job_status(info["id"])
        processed_before = before["events_processed"]
        assert processed_before > 0
        # Kill −9: no drain, no close — the manager is simply abandoned.

        second = JobManager(config)
        second.resume()
        status = second.job_status(info["id"])
        assert status["state"] == "running"
        # The WAL replay rebuilt the routed log exactly (the job only
        # logs the event types its scans read, not the whole stream).
        assert status["events_logged"] == before["events_logged"]
        assert status["events_processed"] == processed_before
        # The producer re-sends everything: the durable prefix must
        # dedup, the lost tail must be admitted fresh.
        for seq, event in enumerate(all_events, start=1):
            second.ingest_event(event, source="t", seq=seq)
        assert second.tracker.duplicates >= cut // 2
        second.drain()
        assert served_bytes(second, info["id"], "traffic-congestion") == \
            batch_reference("traffic-congestion", streams)

    def test_sharded_job_resumes_across_restart(self, tmp_path):
        streams = offset_streams(events=600, seed=9)
        all_events = list(merge_streams_for_wire(streams))
        cut = len(all_events) // 2
        config = ServiceConfig(state_dir=str(tmp_path), **self.CONFIG)

        first = JobManager(config)
        info = first.submit(sharded_submit(name="shard-resume", shards=2))
        for seq, event in enumerate(all_events[:cut], start=1):
            first.ingest_event(event, source="t", seq=seq)
        first.run_round(first.jobs[info["id"]])

        second = JobManager(config)
        second.resume()
        assert second.job_status(info["id"])["backend"] == "sharded"
        for seq, event in enumerate(all_events, start=1):
            second.ingest_event(event, source="t", seq=seq)
        second.drain()
        assert served_bytes(second, info["id"], "shard-resume") == \
            batch_reference_inline(SHARDABLE, streams, o3="id")

    def test_old_format_manifest_resumes_with_retired_keys_ignored(self, tmp_path):
        """Manifests store the raw submit dict, so one written before the
        engine flags, the round knobs and the shard dispatch mode were
        retired still carries ``fusion``/``columnar``,
        ``round_events``/``round_slo_ms`` and ``shard_mode``
        (values no check of this version would pass): resume must accept
        it, ignore the keys and — here across a second mid-stream kill on
        the batch engine — serve identical bytes."""
        job_dir = tmp_path / "job-1"
        job_dir.mkdir()
        (job_dir / "job.json").write_text(json.dumps({
            "job_id": "job-1",
            "request": {
                "name": "tc-columnar",
                "query": {"catalog": "traffic-congestion", "name": "tc-columnar"},
                "batch_size": 256,
                "fusion": True,
                "columnar": True,
                "round_events": 0,
                "round_slo_ms": "soon",
                "shard_mode": "fork",
            },
        }))
        streams = offset_streams()
        all_events = list(merge_streams_for_wire(streams))
        config = ServiceConfig(state_dir=str(tmp_path), **self.CONFIG)

        first = JobManager(config)
        first.resume()
        assert first.resumed["jobs"] == ["job-1"]
        assert first.jobs["job-1"].settings.batch_size == 256
        for seq, event in enumerate(all_events[: len(all_events) * 2 // 3], start=1):
            first.ingest_event(event, source="t", seq=seq)
        first.run_round(first.jobs["job-1"])
        assert first.job_status("job-1")["events_processed"] > 0

        second = JobManager(config)
        second.resume()
        for seq, event in enumerate(all_events, start=1):
            second.ingest_event(event, source="t", seq=seq)
        second.drain()
        assert served_bytes(second, "job-1", "tc-columnar") == \
            batch_reference("traffic-congestion", streams)

    def test_terminal_jobs_are_not_resurrected(self, tmp_path):
        config = ServiceConfig(state_dir=str(tmp_path), **self.CONFIG)
        first = JobManager(config)
        kept = first.submit({"query": "traffic-congestion", "name": "kept"})
        gone = first.submit(
            {"query": {"pattern": SHARDABLE, "name": "inner"}, "name": "gone"}
        )
        first.cancel(gone["id"])

        second = JobManager(config)
        second.resume()
        assert kept["id"] in second.jobs
        assert gone["id"] not in second.jobs
        # Fresh ids continue past everything ever persisted.
        third = second.submit({"query": "street-lighting-demand"})
        assert third["id"] not in (kept["id"], gone["id"])

    def test_wal_tolerates_a_truncated_tail(self, tmp_path):
        state = ServiceState(tmp_path)
        state.append_wal([('{"type": "Q", "ts": 1}', ["job-1"])])
        state.append_wal([('{"type": "Q", "ts": 2}', ["job-1"])])
        state.close()
        with state.wal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": {"type": "Q", "ts": 3}, "jo')  # torn write
        replayed = list(state.replay_wal())
        assert [doc["ts"] for doc, _jobs in replayed] == [1, 2]
        assert replayed[0][1] == ["job-1"]

    def test_manifest_round_trips_the_submit_request(self, tmp_path):
        state = ServiceState(tmp_path)
        request = {"query": "traffic-congestion", "queue_limit": 10}
        state.write_manifest("job-7", request)
        state.write_progress("job-7", {"state": "running", "rounds": 2})
        (doc,) = state.load_jobs()
        assert doc["job_id"] == "job-7"
        assert doc["request"] == request
        assert doc["progress"]["rounds"] == 2
        assert state.max_job_number() == 7

    def test_concurrent_progress_writes_do_not_collide(self, tmp_path):
        """A cancel's progress record racing the worker's: every writer
        has its own temporary, so no ``replace`` finds its file gone, the
        record always parses and no temporary is left behind."""
        import sys
        import threading

        state = ServiceState(tmp_path)
        state.write_progress("job-1", {"writer": -1, "n": -1})
        target = state.job_dir("job-1") / "state.json"
        writers, writes = 8, 60
        errors: list[BaseException] = []
        done = threading.Event()

        def write(writer: int) -> None:
            try:
                for n in range(writes):
                    state.write_progress("job-1", {"writer": writer, "n": n})
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def read() -> None:
            try:
                while not done.is_set():
                    assert set(json.loads(target.read_text())) == {"writer", "n"}
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
            reader = threading.Thread(target=read)
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and not any(t.is_alive() for t in threads)
        assert errors == []
        assert json.loads(target.read_text())["n"] == writes - 1
        assert [p.name for p in target.parent.iterdir() if ".tmp" in p.name] == []


class TestClientBackoff:
    def test_schedule_is_capped_exponential(self):
        assert backoff_schedule(0) == []
        assert backoff_schedule(3) == [50.0, 100.0, 200.0]
        assert backoff_schedule(8, base_ms=50, cap_ms=1000) == [
            50.0, 100.0, 200.0, 400.0, 800.0, 1000.0, 1000.0, 1000.0,
        ]
        with pytest.raises(ValueError):
            backoff_schedule(-1)

    def test_transient_errors_retry_then_surface_as_503(self):
        from repro.runtime.service import ServiceClient

        # A port nothing listens on: every attempt is ECONNREFUSED.
        client = ServiceClient(
            "127.0.0.1", 1, timeout=0.5, retries=2, backoff_base_ms=1.0
        )
        started = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert err.value.code == "unreachable"
        assert err.value.status == 503
        assert "3 attempt(s)" in str(err.value)
        assert time.monotonic() - started < 5.0

    def test_http_errors_are_not_retried(self):
        from repro.runtime.service import ServiceClient

        client = ServiceClient("127.0.0.1", 1, retries=0)
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert "1 attempt(s)" in str(err.value)


class TestTrackerRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=1, max_value=30),
            ),
            max_size=40,
        ),
        cut=st.integers(min_value=0, max_value=40),
    )
    def test_snapshot_restore_preserves_the_dedup_horizon(self, ops, cut):
        """Any interleaving of sends, snapshotted at any point (a server
        restart, JSON round trip included), admits exactly what an
        uninterrupted tracker would — and re-sends of the pre-snapshot
        prefix are all dropped as duplicates."""
        point = min(cut, len(ops))
        live = SourceTracker()
        decisions_live = []
        snapshot = None
        for index, (source, seq) in enumerate(ops):
            if index == point:
                snapshot = json.loads(json.dumps(live.snapshot()))
            decisions_live.append(take(live, source, seq))
        if snapshot is None:  # cut lands at/after the end of the stream
            point = len(ops)
            snapshot = json.loads(json.dumps(live.snapshot()))

        restarted = SourceTracker()
        restarted.restore(snapshot)
        decisions_restarted = [
            take(restarted, source, seq) for source, seq in ops[point:]
        ]
        assert decisions_restarted == decisions_live[point:]
        assert restarted.last_seq == live.last_seq

        # The producer re-sending everything it sent before the crash:
        # every line is at or below the restored horizon, all dropped.
        resent = SourceTracker()
        resent.restore(snapshot)
        assert not any(take(resent, source, seq) for source, seq in ops[:point])

    def test_duplicates_resent_across_restart_stay_dropped(self):
        live = SourceTracker()
        for seq in (1, 2, 3):
            assert take(live, "s", seq)
        restarted = SourceTracker()
        restarted.restore(live.snapshot())
        assert not take(restarted, "s", 3), "pre-restart seq must dedup"
        assert take(restarted, "s", 4), "fresh traffic must pass"
        assert restarted.duplicates == live.duplicates + 1

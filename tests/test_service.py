"""The `repro serve` subsystem: wire codec, job manager, admission.

In-process tests (no sockets): parsing strictness of the NDJSON
ingestion format, the job manager's submit/ingest/round/drain lifecycle,
server-vs-batch byte-identity of matches (including after injected
crashes recovered from checkpoints), and the backpressure policies on
bounded ingress queues. Live-socket coverage lives in
``test_service_live.py``.
"""

import threading
import time

import pytest

from repro.asp.datamodel import Event
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
    SourceTracker,
    WireError,
    event_from_wire,
    event_to_wire,
    merge_streams_for_wire,
    parse_wire_line,
)
from tests.test_service_scale import take


def offset_streams(events=1200, sensors=6, seed=11):
    """QnV/AQ workload with per-type ts offsets so no two *different*
    types share a timestamp (the batch cross-type tie-break is scan
    registration order, which the wire stream cannot know)."""
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
    """Canonical match bytes of the one-shot batch run on ``streams``."""
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


def served_bytes(manager, job_id, query_name):
    keys = manager.job_matches(job_id)["queries"][query_name]["keys"]
    return "\n".join(keys).encode("utf-8")


class TestWireCodec:
    def test_event_roundtrip(self):
        event = Event("Q", ts=60000, id=3, value=81.5, lat=1.0, lon=2.0,
                      attrs={"road": "a5"})
        doc = event_to_wire(event, source="gen", seq=9)
        message = parse_wire_line(__import__("json").dumps(doc))
        assert message["kind"] == "event"
        assert message["source"] == "gen" and message["seq"] == 9
        back = message["event"]
        assert back.event_type == "Q" and back.ts == 60000
        assert back.value == 81.5 and back.attrs == {"road": "a5"}

    def test_watermark_and_ops(self):
        assert parse_wire_line('{"watermark": 120, "source": "s"}') == {
            "kind": "watermark", "ts": 120, "source": "s",
        }
        assert parse_wire_line(b'{"op": "sync"}')["op"] == "sync"

    @pytest.mark.parametrize(
        "line,code",
        [
            ("", "empty-line"),
            ("not json", "bad-json"),
            ("[1,2]", "bad-json"),
            ('{"ts": 5}', "bad-event"),
            ('{"type": "", "ts": 5}', "bad-event"),
            ('{"type": "Q"}', "bad-event"),
            ('{"type": "Q", "ts": 1.5}', "bad-event"),
            ('{"type": "Q", "ts": true}', "bad-event"),
            ('{"type": "Q", "ts": 5, "value": "x"}', "bad-event"),
            ('{"type": "Q", "ts": 5, "seq": "x"}', "bad-event"),
            ('{"watermark": "x"}', "bad-watermark"),
            ('{"op": "explode"}', "bad-op"),
            (b"\xff\xfe", "bad-encoding"),
        ],
    )
    def test_malformed_lines_get_stable_codes(self, line, code):
        with pytest.raises(WireError) as err:
            parse_wire_line(line)
        assert err.value.code == code
        assert err.value.as_dict()["code"] == code

    def test_unknown_keys_become_attrs(self):
        event = event_from_wire({"type": "Q", "ts": 1, "road": "a5", "seq": 4})
        assert event.attrs == {"road": "a5"}  # seq is wire metadata

    def test_source_tracker_dedups_and_counts_gaps(self):
        tracker = SourceTracker()
        assert take(tracker, "a", 1) and take(tracker, "a", 2)
        assert not take(tracker, "a", 2)  # retransmit
        assert not take(tracker, "a", 1)
        assert take(tracker, "a", 5)  # gap, still admitted
        assert take(tracker, None, None)  # untracked producers always pass
        assert tracker.duplicates == 2 and tracker.gaps == 1
        tracker.heartbeat("a", 100)
        tracker.heartbeat("a", 50)  # regressions ignored
        tracker.heartbeat("b", 80)
        assert tracker.min_watermark() == 80
        assert tracker.as_dict()["sources"]["a"]["watermark"] == 100

    def test_merge_streams_is_a_stable_ts_merge(self):
        streams = {
            "A": [Event("A", ts=1), Event("A", ts=3)],
            "B": [Event("B", ts=2), Event("B", ts=4)],
        }
        merged = list(merge_streams_for_wire(streams))
        assert [e.ts for e in merged] == [1, 2, 3, 4]


class TestSubmit:
    def test_submit_catalog_query(self):
        manager = JobManager()
        info = manager.submit({"query": "traffic-congestion"})
        assert info["state"] == "running"
        assert info["queries"] == ["traffic-congestion"]
        assert set(info["event_types"]) == {"Q", "V"}

    def test_cosubmitted_queries_share_scans(self):
        manager = JobManager()
        info = manager.submit(
            {"name": "combo",
             "queries": ["traffic-congestion", "street-lighting-demand"]}
        )
        assert info["shared_scans"] >= 1  # Q/V scans shared across plans

    def test_inline_pattern(self):
        manager = JobManager()
        info = manager.submit(
            {"query": {"pattern":
                       "PATTERN SEQ(Q a, V b) WHERE a.value > 100 "
                       "WITHIN 15 MINUTES",
                       "name": "hot"}}
        )
        assert info["queries"] == ["hot"]

    def test_duplicate_job_name_is_409(self):
        manager = JobManager()
        manager.submit({"name": "x", "query": "traffic-congestion"})
        with pytest.raises(ServiceError) as err:
            manager.submit({"name": "x", "query": "street-lighting-demand"})
        assert err.value.status == 409 and err.value.code == "duplicate-job"
        # a cancelled job frees its name
        manager.cancel("x")
        manager.submit({"name": "x", "query": "street-lighting-demand"})

    def test_unknown_catalog_query_is_404(self):
        with pytest.raises(ServiceError) as err:
            JobManager().submit({"query": "no-such-query"})
        assert err.value.status == 404 and err.value.code == "unknown-query"

    def test_bad_pattern_text_is_structured_400(self):
        with pytest.raises(ServiceError) as err:
            JobManager().submit({"query": {"pattern": "SEQ(Q q,"}})
        assert err.value.status == 400 and err.value.code == "bad-pattern"

    def test_sharing_conflict_rejects_co_submission(self):
        # Both queries pass their individual lints, but their bare Q
        # scans form one shared prefix while the O3 overrides demand
        # different partition keys — the prover's RA813 makes the merged
        # submit a structured 400.
        with pytest.raises(ServiceError) as err:
            JobManager().submit(
                {"queries": [
                    {"pattern": "PATTERN SEQ(Q a, Q b) WHERE a.id = b.id "
                                "WITHIN 10 MINUTES",
                     "name": "by-id", "options": {"o3": "id"}},
                    {"pattern": "PATTERN SEQ(Q a, Q b) WHERE a.value = b.value "
                                "WITHIN 10 MINUTES",
                     "name": "by-value", "options": {"o3": "value"}},
                ]}
            )
        assert err.value.code == "sharing-conflict"
        assert err.value.status == 400
        assert any(d["code"] == "RA813" for d in err.value.details)

    def test_aligned_partition_keys_are_accepted_with_proof(self):
        manager = JobManager()
        info = manager.submit(
            {"queries": [
                {"pattern": "PATTERN SEQ(Q a, Q b) WHERE a.id = b.id "
                            "WITHIN 10 MINUTES",
                 "name": "one", "options": {"o3": "id"}},
                {"pattern": "PATTERN SEQ(Q a, Q b) WHERE a.id = b.id "
                            "WITHIN 10 MINUTES",
                 "name": "two", "options": {"o3": "id"}},
            ]}
        )
        status = manager.job_status(info["id"])
        assert status["sharing"] is not None and status["sharing"]["ok"]
        assert status["sharing"]["groups"], "expected a proven shared prefix"

    def test_format_service_error_renders_diagnostics(self):
        from repro.runtime.service import format_service_error

        with pytest.raises(ServiceError) as err:
            JobManager().submit(
                {"query": {"pattern":
                           "PATTERN SEQ(Q a, V b) "
                           "WHERE a.bogus = b.id "
                           "WITHIN 15 MINUTES"}}
            )
        text = format_service_error(err.value)
        assert text.startswith("static-analysis (HTTP 400)")
        assert "[RA101]" in text  # one rendered line per diagnostic

    def test_static_analysis_rejection_carries_diagnostics(self):
        # An unresolvable attribute reference is an error-level
        # diagnostic: the submit must fail as a structured 400 whose
        # details are the analyzer's diagnostics, not a stack trace.
        with pytest.raises(ServiceError) as err:
            JobManager().submit(
                {"query": {"pattern":
                           "PATTERN SEQ(Q a, V b) "
                           "WHERE a.bogus = b.id "
                           "WITHIN 15 MINUTES"}}
            )
        assert err.value.code == "static-analysis"
        assert err.value.status == 400
        assert err.value.details, "diagnostics must be attached"
        assert all("code" in d and "severity" in d for d in err.value.details)

    def test_bad_requests(self):
        manager = JobManager()
        for body, code in [
            ({}, "bad-request"),
            ({"queries": []}, "bad-request"),
            ({"query": 42}, "bad-query"),
            ({"query": {"x": 1}}, "bad-query"),
            ({"query": "traffic-congestion", "optimize": "warp"}, "bad-request"),
            ({"query": "traffic-congestion", "admission": "drop"}, "bad-request"),
            ({"query": "traffic-congestion", "fault_plan": "nope"},
             "bad-fault-plan"),
            ({"queries": ["traffic-congestion", "traffic-congestion"]},
             "duplicate-query"),
        ]:
            with pytest.raises(ServiceError) as err:
                manager.submit(body)
            assert err.value.code == code, body


class TestRoundsEquivalence:
    def ingest_all(self, manager, streams):
        for seq, event in enumerate(merge_streams_for_wire(streams), start=1):
            manager.ingest_event(event, source="t", seq=seq)

    def test_server_matches_batch_bytes(self):
        streams = offset_streams()
        manager = JobManager(ServiceConfig(checkpoint_interval=100))
        info = manager.submit({"query": "traffic-congestion"})
        self.ingest_all(manager, streams)
        manager.run_round(manager.jobs[info["id"]])  # mid-stream round
        manager.drain()
        status = manager.job_status(info["id"])
        assert status["state"] == "drained"
        assert status["rounds"] >= 2
        assert served_bytes(manager, info["id"], "traffic-congestion") == \
            batch_reference("traffic-congestion", streams)

    def test_crash_recovery_preserves_byte_identity(self):
        streams = offset_streams()
        manager = JobManager(ServiceConfig(checkpoint_interval=150))
        info = manager.submit(
            {"query": "traffic-congestion", "fault_plan": "crash:at=700"}
        )
        self.ingest_all(manager, streams)
        manager.run_round(manager.jobs[info["id"]])
        manager.drain()
        status = manager.job_status(info["id"])
        assert status["state"] == "drained"
        assert status["restarts"] == 1, "the injected crash must have fired"
        assert served_bytes(manager, info["id"], "traffic-congestion") == \
            batch_reference("traffic-congestion", streams)

    def test_cosubmitted_queries_both_match_batch(self):
        streams = offset_streams(events=900, seed=5)
        manager = JobManager(ServiceConfig())
        info = manager.submit(
            {"queries": ["traffic-congestion", "street-lighting-demand"]}
        )
        self.ingest_all(manager, streams)
        manager.drain()
        for query_name in ("traffic-congestion", "street-lighting-demand"):
            assert served_bytes(manager, info["id"], query_name) == \
                batch_reference(query_name, streams), query_name

    def test_restart_budget_exhaustion_fails_the_job(self):
        streams = offset_streams(events=600, seed=3)
        manager = JobManager(ServiceConfig())
        info = manager.submit(
            {"query": "traffic-congestion",
             "fault_plan": "crash:at=50;crash:at=50;crash:at=50",
             "max_restarts": 1}
        )
        self.ingest_all(manager, streams)
        manager.run_round(manager.jobs[info["id"]])
        status = manager.job_status(info["id"])
        assert status["state"] == "failed"
        assert "restart budget" in manager.jobs[info["id"]].failure

    def test_durable_store_uses_per_job_subdirectories(self, tmp_path):
        streams = offset_streams(events=600, seed=9)
        manager = JobManager(
            ServiceConfig(state_dir=str(tmp_path))
        )
        a = manager.submit({"name": "a", "query": "traffic-congestion"})
        b = manager.submit({"name": "b", "query": "street-lighting-demand"})
        self.ingest_all(manager, streams)
        manager.drain()
        assert (tmp_path / a["id"]).is_dir() and (tmp_path / b["id"]).is_dir()
        for job_id in (a["id"], b["id"]):
            chk = manager.job_checkpoints(job_id)
            assert chk["durable"] and chk["entries"]


class TestAdmissionControl:
    def make_events(self, n):
        return [Event("Q", ts=60000 * (i + 1), id=1, value=50.0)
                for i in range(n)]

    def test_reject_policy_counts_and_hints(self):
        manager = JobManager(
            ServiceConfig(queue_limit=5, admission="reject", retry_after_ms=99)
        )
        info = manager.submit({"query": "traffic-congestion"})
        outcomes = [manager.ingest_event(e) for e in self.make_events(8)]
        rejected = [o for o in outcomes if o.get("rejections")]
        assert len(rejected) == 3
        assert rejected[0]["rejections"][0]["reason"] == "queue-full"
        assert rejected[0]["rejections"][0]["retry_after_ms"] == 99
        report = manager.job_metrics(info["id"])
        ingress = report["service"]["ingress"]["ingress"]
        assert ingress["admission.accepted"]["value"] == 5
        assert ingress["admission.rejected"]["value"] == 3

    def test_block_policy_waits_for_the_worker(self):
        manager = JobManager(
            ServiceConfig(queue_limit=4, admission="block")
        )
        info = manager.submit({"query": "traffic-congestion"})
        job = manager.jobs[info["id"]]
        events = self.make_events(10)
        done = threading.Event()

        def produce():
            for event in events:
                manager.ingest_event(event)
            done.set()

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        # The producer must stall on the full queue until rounds drain it.
        deadline = time.monotonic() + 10
        while not done.is_set() and time.monotonic() < deadline:
            manager.run_round(job)
            time.sleep(0.01)
        assert done.is_set(), "blocked producer never unblocked"
        manager.drain()
        report = manager.job_metrics(info["id"])
        ingress = report["service"]["ingress"]["ingress"]
        assert ingress["admission.accepted"]["value"] == 10
        assert ingress["admission.blocked"]["value"] >= 1
        assert manager.job_status(info["id"])["events_processed"] == 10

    def test_blocked_producer_released_by_cancel(self):
        manager = JobManager(
            ServiceConfig(queue_limit=2, admission="block")
        )
        info = manager.submit({"query": "traffic-congestion"})
        results = []

        def produce():
            for event in self.make_events(5):
                results.append(manager.ingest_event(event))

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        time.sleep(0.2)
        manager.cancel(info["id"])
        producer.join(timeout=5)
        assert not producer.is_alive()
        reasons = [
            r["reason"]
            for outcome in results
            for r in outcome.get("rejections", ())
        ]
        assert "job-cancelled" in reasons

    def test_ingest_routes_only_matching_types(self):
        manager = JobManager()
        manager.submit({"query": "traffic-congestion"})  # wants Q, V
        routed = manager.ingest_event(Event("Q", ts=1, value=1.0))
        ignored = manager.ingest_event(Event("PM10", ts=2, value=1.0))
        assert routed["accepted"] == 1
        assert ignored.get("unrouted") and ignored["accepted"] == 0
        assert manager.server_metrics()["unrouted_events"] == 1

    def test_duplicate_sequence_numbers_are_dropped(self):
        manager = JobManager()
        manager.submit({"query": "traffic-congestion"})
        event = Event("Q", ts=1, value=1.0)
        assert manager.ingest_event(event, "s", 1)["accepted"] == 1
        assert manager.ingest_event(event, "s", 1).get("duplicate")
        assert manager.server_metrics()["ingest"]["duplicates"] == 1


class TestLifecycle:
    def test_cancel_clears_queue_and_rejects_ingest(self):
        manager = JobManager(ServiceConfig())
        info = manager.submit({"query": "traffic-congestion"})
        manager.ingest_event(Event("Q", ts=1, value=1.0))
        status = manager.cancel(info["id"])
        assert status["state"] == "cancelled" and status["queue_depth"] == 0
        outcome = manager.ingest_event(Event("Q", ts=2, value=1.0))
        assert outcome["rejections"][0]["reason"] == "job-cancelled"

    def test_lookup_by_unique_name(self):
        manager = JobManager()
        manager.submit({"name": "tc", "query": "traffic-congestion"})
        assert manager.job_status("tc")["name"] == "tc"
        with pytest.raises(ServiceError) as err:
            manager.job_status("missing")
        assert err.value.status == 404

    def test_submit_rejected_while_draining(self):
        manager = JobManager()
        manager.drain()
        with pytest.raises(ServiceError) as err:
            manager.submit({"query": "traffic-congestion"})
        assert err.value.status == 503 and err.value.code == "draining"

    def test_worker_thread_runs_rounds(self):
        manager = JobManager(ServiceConfig())
        manager.start()
        try:
            info = manager.submit({"query": "traffic-congestion"})
            streams = offset_streams(events=400, seed=2)
            for seq, event in enumerate(merge_streams_for_wire(streams), 1):
                manager.ingest_event(event, "w", seq)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if manager.job_status(info["id"])["rounds"] >= 1:
                    break
                time.sleep(0.05)
            assert manager.job_status(info["id"])["rounds"] >= 1
        finally:
            manager.stop()

    def test_metrics_report_schema(self):
        manager = JobManager(ServiceConfig())
        info = manager.submit({"query": "traffic-congestion"})
        streams = offset_streams(events=400, seed=4)
        for event in merge_streams_for_wire(streams):
            manager.ingest_event(event)
        manager.drain()
        report = manager.job_metrics(info["id"])
        assert report["schema"] == "repro.metrics/v1"
        assert report["service"]["state"] == "drained"
        assert report["service"]["admission"]["policy"] == "reject"
        assert report["service"]["checkpoints"]["count"] >= 1
        assert report["operators"], "operator tree must accumulate"

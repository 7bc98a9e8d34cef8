"""Live-socket coverage of `repro serve`: HTTP control API + TCP ingest.

Boots the real asyncio server (ephemeral ports) in a background thread
and drives it with the stdlib client: submit/cancel/status round-trips,
structured error documents for every control-plane failure, NDJSON
ingestion over both transports with per-line error reporting, and the
headline guarantee — matches streamed through the live server are
byte-identical to the one-shot batch run, including when the job crashes
mid-stream and recovers from its checkpoints.
"""

import json

import pytest

from repro.runtime.service import (
    ServiceClient,
    ServiceConfig,
    start_in_thread,
    stream_events,
)
from tests.test_service import batch_reference, offset_streams
from repro.runtime.service import merge_streams_for_wire


@pytest.fixture()
def handle():
    service = start_in_thread(
        ServiceConfig(checkpoint_interval=100)
    )
    try:
        yield service
    finally:
        service.stop()


@pytest.fixture()
def client(handle):
    return ServiceClient(handle.host, handle.http_port)


class TestControlApi:
    def test_healthz_and_empty_listing(self, client):
        health = client.healthz()
        assert health["status"] == "ok" and health["jobs"] == 0
        assert client.jobs() == []

    def test_submit_status_cancel_roundtrip(self, client):
        info = client.submit({"name": "tc", "query": "traffic-congestion"})
        assert info["state"] == "running"
        assert client.job(info["id"])["name"] == "tc"
        assert client.job("tc")["id"] == info["id"]  # unique-name lookup
        assert [j["id"] for j in client.jobs()] == [info["id"]]
        assert client.cancel(info["id"])["state"] == "cancelled"

    def test_error_documents_not_stack_traces(self, client):
        client.submit({"name": "tc", "query": "traffic-congestion"})
        for method, path, body, status, code in [
            ("POST", "/jobs", {"name": "tc", "query": "traffic-congestion"},
             409, "duplicate-job"),
            ("POST", "/jobs", {"query": "no-such"}, 404, "unknown-query"),
            ("POST", "/jobs", {"query": {"pattern": "SEQ(Q q,"}},
             400, "bad-pattern"),
            ("POST", "/jobs", b"not json", 400, "bad-request"),
            ("GET", "/jobs/missing", None, 404, "unknown-job"),
            ("GET", "/nope", None, 404, "not-found"),
        ]:
            got_status, doc = client.request(method, path, body)
            assert got_status == status, (path, doc)
            assert doc["error"]["code"] == code
            assert "message" in doc["error"]

    def test_static_analysis_diagnostics_over_http(self, client):
        status, doc = client.request(
            "POST", "/jobs",
            {"query": {"pattern": "PATTERN SEQ(Q a, V b) "
                                  "WHERE a.bogus = b.id WITHIN 15 MINUTES"}},
        )
        assert status == 400
        assert doc["error"]["code"] == "static-analysis"
        assert doc["error"]["details"][0]["severity"] == "error"

    def test_http_ingest_reports_per_line_errors(self, client):
        client.submit({"query": "traffic-congestion"})
        status, summary = client.ingest_lines(
            ['{"type": "Q", "ts": 60000, "value": 1.0}',
             "not json",
             '{"type": "Q"}',
             '{"watermark": 60000}',
             '{"op": "bye"}',  # ends the body as it ends a TCP session
             '{"type": "Q", "ts": 120000, "value": 1.0}']
        )
        assert status == 400  # partial failure is a structured 400
        assert summary["accepted"] == 1 and summary["watermarks"] == 1
        codes = [e["code"] for e in summary["errors"]]
        assert codes == ["bad-json", "bad-event"]
        assert [e["line"] for e in summary["errors"]] == [2, 3]


class TestLiveEquivalence:
    def test_tcp_stream_matches_batch(self, handle, client):
        streams = offset_streams(events=1400, seed=7)
        info = client.submit(
            {"name": "combo",
             "queries": ["traffic-congestion", "street-lighting-demand"]}
        )
        wire = list(merge_streams_for_wire(streams))
        summary = stream_events(
            handle.host, handle.tcp_port, wire,
            source="live", watermark_every=400,
        )
        assert summary["errors"] == []
        assert summary["accepted"] > 0 and summary["rejected"] == 0
        client.drain()
        status = client.job(info["id"])
        assert status["state"] == "drained"
        matches = client.matches(info["id"])
        for query_name in ("traffic-congestion", "street-lighting-demand"):
            served = "\n".join(
                matches["queries"][query_name]["keys"]
            ).encode("utf-8")
            assert served == batch_reference(query_name, streams), query_name

    def test_crash_midstream_recovers_and_matches_batch(self, handle, client):
        streams = offset_streams(events=1200, seed=13)
        info = client.submit(
            {"query": "traffic-congestion", "fault_plan": "crash:at=500"}
        )
        wire = list(merge_streams_for_wire(streams))
        stream_events(handle.host, handle.tcp_port, wire,
                      source="crashy", watermark_every=300)
        client.drain()
        status = client.job(info["id"])
        assert status["state"] == "drained"
        assert status["restarts"] == 1, "worker must have crashed + recovered"
        served = "\n".join(
            client.matches(info["id"])["queries"]["traffic-congestion"]["keys"]
        ).encode("utf-8")
        assert served == batch_reference("traffic-congestion", streams)

    def test_tcp_retransmit_is_deduplicated(self, handle, client):
        client.submit({"query": "traffic-congestion"})
        streams = offset_streams(events=400, seed=21)
        wire = list(merge_streams_for_wire(streams))[:100]
        first = stream_events(handle.host, handle.tcp_port, wire, source="p")
        again = stream_events(handle.host, handle.tcp_port, wire, source="p")
        assert first["duplicates"] == 0
        assert again["duplicates"] == 100  # full retransmit absorbed
        assert client.server_metrics()["ingest"]["duplicates"] == 100

    def test_tcp_malformed_lines_get_error_lines(self, handle):
        import socket

        with socket.create_connection(
            (handle.host, handle.tcp_port), timeout=10
        ) as sock:
            writer = sock.makefile("wb")
            reader = sock.makefile("rb")
            writer.write(b'{"type": "Q"}\n')       # bad-event
            writer.write(b"garbage\n")             # bad-json
            writer.write(b'{"op": "sync"}\n')
            writer.flush()
            lines = [json.loads(reader.readline()) for _ in range(3)]
        assert lines[0]["error"]["code"] == "bad-event"
        assert lines[0]["error"]["line"] == 1
        assert lines[1]["error"]["code"] == "bad-json"
        assert lines[2]["sync"]["errors"] != []

    def test_tcp_lines_cut_anywhere_by_the_transport(self, handle, client):
        """Reads end wherever the network cut the stream: a line split
        over two reads is one line, line numbers run across reads, and an
        unterminated last line still counts at EOF."""
        import socket
        import time

        client.submit({"query": "traffic-congestion"})
        event = '{"type": "Q", "ts": %d, "value": 1.0, "id": 1}'
        with socket.create_connection(
            (handle.host, handle.tcp_port), timeout=10
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall((event % 60000 + "\n" + event[:20]).encode())
            time.sleep(0.2)  # the first read returns with half a line
            sock.sendall((event[20:] % 120000 + "\ngarbage\n").encode())
            sock.sendall(b'{"op": "sync"}\n')
            error, barrier = (json.loads(reader.readline()) for _ in range(2))
            assert error["error"]["line"] == 3
            assert barrier["sync"]["accepted"] == 2
            sock.sendall((event % 180000).encode())  # no newline, then EOF
            sock.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + 10
        while True:
            status = client.job("traffic-congestion")
            if status["queue_depth"] + status["events_logged"] == 3:
                break
            assert time.monotonic() < deadline, "last line was dropped"
            time.sleep(0.02)

    def test_tcp_overlong_line_is_an_error_not_a_buffer(self, handle):
        import socket

        with socket.create_connection(
            (handle.host, handle.tcp_port), timeout=10
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"pad": "' + b"x" * 200_000 + b'"}\n{"op": "sync"}\n')
            replies = []
            while not replies or "sync" not in replies[-1]:
                replies.append(json.loads(reader.readline()))
        assert replies[0]["error"]["code"] == "bad-json"
        assert len(replies) <= 5  # a few pieces, each answered as a line

    def test_tcp_batch_is_one_handoff_not_one_per_line(self, handle, client):
        """What a producer wrote in one go crosses to the executor in a
        few calls, so its acknowledgement does not queue behind a running
        round once per line."""
        client.submit({"query": "traffic-congestion"})
        service = handle.service
        calls = []
        apply_lines = service._apply_lines
        service._apply_lines = lambda lines, *rest: (
            calls.append(len(lines)), apply_lines(lines, *rest)
        )[1]
        wire = list(merge_streams_for_wire(offset_streams(events=400, seed=5)))
        summary = stream_events(handle.host, handle.tcp_port, wire, source="b")
        assert summary["errors"] == [] and sum(calls) >= len(wire)
        assert len(calls) < len(wire) / 10
        client.drain()
        status = client.job("traffic-congestion")
        assert status["events_processed"] == summary["accepted"] > 0

    def test_metrics_and_checkpoints_endpoints(self, handle, client):
        info = client.submit({"query": "traffic-congestion"})
        streams = offset_streams(events=600, seed=17)
        stream_events(
            handle.host, handle.tcp_port,
            merge_streams_for_wire(streams), source="m", watermark_every=200,
        )
        client.drain()
        report = client.metrics(info["id"])
        assert report["schema"] == "repro.metrics/v1"
        assert report["service"]["rounds"] >= 1
        ingress = report["service"]["ingress"]["ingress"]
        assert ingress["admission.accepted"]["value"] > 0
        chk = client.checkpoints(info["id"])
        assert chk["coordinator"]["count"] >= 1 and chk["entries"]

    def test_shutdown_endpoint_drains_then_stops(self):
        service = start_in_thread(ServiceConfig())
        client = ServiceClient(service.host, service.http_port)
        info = client.submit({"query": "traffic-congestion"})
        streams = offset_streams(events=300, seed=29)
        for event in merge_streams_for_wire(streams):
            service.manager.ingest_event(event)
        assert client.shutdown()["status"] == "shutting-down"
        service.thread.join(timeout=10)
        assert not service.thread.is_alive()
        # drained before exit: queue empty, final checkpoint taken
        job = service.manager.jobs[info["id"]]
        assert job.state == "drained" and job.pending == 0
        assert job.lanes[0].store.latest() is not None

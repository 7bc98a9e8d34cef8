"""Group-commit ingest: the event lines of one read are one ingest run.

``ReproService._apply_lines`` hands each run of consecutive event lines
to ``JobManager.ingest_events``: dedup, routing and admission decide per
event, the run's WAL records go down in one append, and each job's events
reach its queue after it. A heartbeat, a ``sync`` and a ``bye`` end a run
first. These cases hold that to applying the same lines one at a time:
replies, logs, the replayed WAL, the tracker and admission outcomes are
the same however a session's lines are split into reads. They also pin
what group commit adds: a full queue holding the run's own events gets
them published before admission refuses or waits (else a read longer
than the queue waits on itself), a tear inside one run's append, or
just short of a record's newline, ends the replay where the next append
cuts, and a record keeps a producer's bare ``\\r`` and non-ASCII text as
sent.
"""

import asyncio
import json
import logging
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.service import (
    JobManager,
    ReproService,
    ServiceConfig,
    event_from_wire,
    event_to_wire,
    merge_streams_for_wire,
)
from repro.runtime.service.server import _new_summary
from tests.test_service_scale import batch_reference, offset_streams, served_bytes

SOURCE = "p"
#: Q and V route to the jobs below; PM10, PM2, TEMP and HUM to none.
POOL = list(merge_streams_for_wire(offset_streams(events=240, sensors=4, seed=5)))
JOBS = (
    {"name": "tc", "query": "traffic-congestion"},
    {"name": "sl", "query": "street-lighting-demand"},
)
MALFORMED = (
    b'{"type": "Q", "ts": 1',
    b"not json",
    b'{"type": "Q", "ts": "soon"}',
    b"[1, 2]",
    b'{"op": "nap"}',
)


def event_line(event, seq, cr=False, source=SOURCE):
    """A producer's line, UTF-8 as sent; ``cr`` puts a bare ``\\r`` in
    its whitespace."""
    separators = (",\r ", ": ") if cr else None
    doc = event_to_wire(event, source, seq)
    return json.dumps(doc, separators=separators, ensure_ascii=False).encode()


@st.composite
def sessions(draw):
    """An ingest session's lines and the read boundaries to cut it at."""
    kinds = ["fresh"] * 6 + ["cr", "dup", "unrouted", "heartbeat", "sync", "malformed"]
    lines, sent, seq = [], [], 0
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=120)):
        if kind in ("fresh", "cr") and seq < len(POOL):
            seq += 1
            line = event_line(POOL[seq - 1], seq, cr=kind == "cr")
            sent.append(line)
        elif kind == "dup" and sent:
            line = draw(st.sampled_from(sent))
        elif kind == "unrouted":
            line = json.dumps({"type": "X", "ts": seq}).encode()
        elif kind == "heartbeat":
            line = json.dumps({"watermark": POOL[max(0, seq - 1)].ts, "source": SOURCE})
            line = line.encode()
        elif kind == "sync":
            line = b'{"op": "sync"}'
        elif kind == "malformed":
            line = draw(st.sampled_from(MALFORMED))
        else:
            continue
        lines.append(line)
    lines.append(b'{"op": "sync"}')
    cuts = draw(st.lists(st.integers(1, len(lines)), max_size=8))
    return lines, sorted(set(cuts))


def wire(events):
    return [event_to_wire(event) for event in events]


def apply(lines, cuts, queue_limit, state_dir):
    """Apply ``lines`` in reads ending at ``cuts`` on a fresh durable
    manager whose heartbeats also run every job's round (a cut point
    both ways, so ``reject`` outcomes are comparable); what it ends with."""
    manager = JobManager(
        ServiceConfig(state_dir=state_dir, queue_limit=queue_limit, checkpoint_interval=None)
    )
    try:
        ids = [manager.submit(spec)["id"] for spec in JOBS]
        heartbeat = manager.heartbeat

        def heartbeat_and_rounds(source, ts):
            heartbeat(source, ts)
            for job_id in ids:
                manager.run_round(manager.jobs[job_id])

        manager.heartbeat = heartbeat_and_rounds
        service = ReproService(manager)
        summary = _new_summary()
        replies = []
        bounds = [0, *cuts, len(lines)]
        for start, stop in zip(bounds, bounds[1:]):
            got, _ended = service._apply_lines(lines[start:stop], start + 1, summary)
            replies += got
        jobs = {job_id: manager.jobs[job_id] for job_id in ids}
        return {
            "replies": replies,
            "summary": summary,
            "logs": {i: wire([*job.log, *job.queue]) for i, job in jobs.items()},
            "matches": {i: manager.job_matches(i)["queries"] for i in ids},
            "wal": list(manager.state.replay_wal()),
            "tracker": manager.tracker.snapshot(),
            "tracker_file": manager.state.load_tracker(),
            "unrouted": manager.unrouted,
            "admission": {i: job.registry.to_dict() for i, job in jobs.items()},
        }
    finally:
        manager.stop()


@settings(max_examples=80, deadline=None)
@given(session=sessions(), queue_limit=st.sampled_from([3, 10_000]))
def test_any_read_split_ingests_like_one_line_at_a_time(session, queue_limit):
    lines, cuts = session
    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as reads:
        reference = apply(lines, list(range(1, len(lines))), queue_limit, one)
        grouped = apply(lines, cuts, queue_limit, reads)
    for key in ("replies", "summary", "logs", "matches", "wal", "tracker",
                "tracker_file", "unrouted"):
        assert grouped[key] == reference[key], key
    for job_id in reference["admission"]:
        for name in ("admission.accepted", "admission.rejected"):
            assert (
                grouped["admission"][job_id]["ingress"][name]
                == reference["admission"][job_id]["ingress"][name]
            ), (job_id, name)
    # WAL order is every job's log order; a record with a bare "\r"
    # replays like any other.
    for job_id, logged in grouped["logs"].items():
        replayed = [doc for doc, ids in grouped["wal"] if job_id in ids]
        assert wire(event_from_wire(doc) for doc in replayed) == logged


def test_block_admission_commits_a_read_before_it_waits(tmp_path, caplog):
    """250-line reads into a 4-slot queue: each wait first publishes what
    the read admitted so far, so the worker can drain it."""
    streams = offset_streams(events=600, seed=13)
    events = list(merge_streams_for_wire(streams))
    lines = [event_line(event, seq) for seq, event in enumerate(events, start=1)]
    manager = JobManager(
        ServiceConfig(state_dir=str(tmp_path), admission="block", queue_limit=4)
    )
    job_id = manager.submit(JOBS[0])["id"]
    manager.start()
    service = ReproService(manager)
    summary = _new_summary()

    def send():
        for start in range(0, len(lines), 250):
            service._apply_lines(lines[start:start + 250], start + 1, summary)

    try:
        with caplog.at_level(logging.DEBUG, logger="repro"):
            sender = threading.Thread(target=send, daemon=True)
            sender.start()
            sender.join(timeout=60)
            assert not sender.is_alive(), "a read waited on its own reservations"
        manager.drain()
        job = manager.jobs[job_id]
        routed = sum(1 for event in events if event.event_type in job.event_types)
        assert summary["rejected"] == 0 and summary["accepted"] == routed
        assert job.blocked.value > 0
        assert any(f"{job_id}: " in r.message and "blocked" in r.message
                   for r in caplog.records)
        assert served_bytes(manager, job_id, "traffic-congestion") == batch_reference(
            "traffic-congestion", streams
        )
    finally:
        manager.stop()


def test_concurrent_producers_keep_wal_order_equal_to_log_order(tmp_path):
    """Three producers' reads interleave under a short switch interval
    into 8-slot block queues: each job's log is still its WAL records in
    order, every event is processed once and no reserved slot leaks."""
    events = list(merge_streams_for_wire(offset_streams(events=120, seed=31)))
    manager = JobManager(
        ServiceConfig(state_dir=str(tmp_path), admission="block", queue_limit=8)
    )
    ids = [manager.submit(spec)["id"] for spec in JOBS]
    manager.start()
    service = ReproService(manager)
    summaries = [_new_summary() for _ in range(3)]

    def produce(index):
        lines = [
            json.dumps(event_to_wire(event, f"p{index}", seq)).encode()
            for seq, event in enumerate(events, start=1)
        ]
        for start in range(0, len(lines), 50):
            service._apply_lines(lines[start:start + 50], start + 1, summaries[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        producers = [threading.Thread(target=produce, args=(i,), daemon=True) for i in range(3)]
        for producer in producers:
            producer.start()
        for producer in producers:
            producer.join(timeout=60)
        assert not any(producer.is_alive() for producer in producers)
    finally:
        sys.setswitchinterval(interval)
    try:
        manager.drain()
        wal = list(manager.state.replay_wal())
        routed_total = 0
        for job_id in ids:
            job = manager.jobs[job_id]
            routed = 3 * sum(event.event_type in job.event_types for event in events)
            routed_total += routed
            assert job.reserved == 0 and not job.queue
            assert job.events_processed == len(job.log) == routed
            replayed = [doc for doc, routing in wal if job_id in routing]
            assert wire(event_from_wire(doc) for doc in replayed) == wire(job.log)
        assert sum(summary["accepted"] for summary in summaries) == routed_total
    finally:
        manager.stop()


def test_a_rejected_run_is_logged_once_per_job(caplog):
    manager = JobManager(ServiceConfig(queue_limit=3))
    job_id = manager.submit(JOBS[1])["id"]
    service = ReproService(manager)
    lines = [event_line(event, seq) for seq, event in enumerate(POOL[:40], start=1)]
    summary = _new_summary()
    with caplog.at_level(logging.DEBUG, logger="repro"):
        service._apply_lines(lines, 1, summary)
    assert summary["accepted"] == 3 and summary["rejected"] > 0
    (record,) = [r for r in caplog.records if "rejected" in r.message]
    assert record.message.startswith(f"{job_id}: {summary['rejected']} of ")
    assert "queue-full" in record.message
    manager.stop()


@pytest.mark.parametrize("source", [SOURCE, "capteur-été-東"])
def test_a_tear_inside_one_reads_append_ends_the_replay_there(tmp_path, caplog, source):
    """A kill −9 in the middle of one read's WAL write: replay stops at the
    torn record, the producer's re-send re-admits the rest, and records
    appended after the tear stay readable. A producer's non-ASCII source
    reaches the WAL as sent, and the tear then splits one of its
    characters."""
    streams = offset_streams(events=400, seed=21)
    events = list(merge_streams_for_wire(streams))
    lines = [
        event_line(event, seq, source=source) for seq, event in enumerate(events, start=1)
    ]
    heartbeat = json.dumps({"watermark": events[299].ts, "source": source}).encode()
    reads = [lines[:300] + [heartbeat], lines[300:]]
    config = ServiceConfig(state_dir=str(tmp_path), checkpoint_interval=100)

    first = JobManager(config)
    job_id = first.submit(JOBS[0])["id"]
    service = ReproService(first)
    service._apply_lines(reads[0], 1, _new_summary())
    durable = len(list(first.state.replay_wal()))
    first.run_round(first.jobs[job_id])
    wal = first.state.wal_path
    append = first.state.append_wal

    class Killed(Exception):
        pass

    def torn_append(records):
        before = wal.stat().st_size
        append(records)
        data = wal.read_bytes()
        cut = before + (len(data) - before) // 2
        if not source.isascii():
            while data[cut] & 0xC0 != 0x80:  # stop inside a character
                cut += 1
        with wal.open("rb+") as handle:  # part of the write reached the file
            handle.truncate(cut)
        raise Killed

    first.state.append_wal = torn_append
    try:
        service._apply_lines(reads[1], len(reads[0]) + 1, _new_summary())
        raise AssertionError("the append did not run")
    except Killed:
        first.stop()
    kept = wal.read_bytes().count(b"\n")
    assert kept > durable  # the tear is inside the second read's records

    second = JobManager(config)
    with caplog.at_level(logging.DEBUG, logger="repro"):
        second.resume()
    try:
        assert second.resumed["wal_events"] == kept
        assert any(f"torn WAL tail at line {kept + 1}" in r.message for r in caplog.records)
        summary = _new_summary()
        resend = ReproService(second)
        resend._apply_lines(lines, 1, summary)
        job = second.jobs[job_id]
        routed = sum(1 for event in events if event.event_type in job.event_types)
        assert summary["duplicates"] >= kept
        assert summary["accepted"] == routed - kept
        replayed = [doc for doc, ids in second.state.replay_wal() if job_id in ids]
        assert len(replayed) == routed
        assert {doc["source"] for doc in replayed} == {source}
        second.drain()
        assert served_bytes(second, job_id, "traffic-congestion") == batch_reference(
            "traffic-congestion", streams
        )
    finally:
        second.stop()


def test_a_record_torn_before_its_newline_is_dropped_by_replay_and_append(tmp_path):
    """A tear between a record's closing brace and its newline: replay
    drops the record, as the cut before the next append does, so the
    re-send re-admits it and a second restart rebuilds the same log."""
    lines = [event_line(event, seq) for seq, event in enumerate(POOL[:40], start=1)]
    config = ServiceConfig(state_dir=str(tmp_path))
    first = JobManager(config)
    job_id = first.submit(JOBS[0])["id"]
    ReproService(first)._apply_lines(lines, 1, _new_summary())
    logged = wire(first.jobs[job_id].queue)
    first.stop()
    wal = first.state.wal_path
    data = wal.read_bytes()
    assert data.endswith(b"}\n")
    wal.write_bytes(data[:-1])

    second = JobManager(config)
    second.resume()
    try:
        assert second.resumed["wal_events"] == len(logged) - 1
        summary = _new_summary()
        ReproService(second)._apply_lines(lines, 1, summary)
        assert summary["accepted"] == 1
    finally:
        second.stop()
    third = JobManager(config)
    third.resume()
    try:
        assert third.resumed["wal_events"] == len(logged)
        assert wire(third.jobs[job_id].log) == logged
    finally:
        third.stop()


def test_reject_admission_publishes_a_run_before_it_refuses():
    """A read longer than a ``reject`` job's queue, with a worker that
    keeps up (the queue is drained the moment events reach it): when the
    run's own unpublished events fill the queue, they are published and
    admission asks again, so the whole read is admitted, as it would be
    one line at a time."""
    manager = JobManager(ServiceConfig(queue_limit=3))
    job_id = manager.submit(JOBS[1])["id"]
    job = manager.jobs[job_id]
    publish = job.publish

    def publish_and_drain(events):
        ready = publish(events)
        job.drain_queue()
        return ready

    job.publish = publish_and_drain
    lines = [event_line(event, seq) for seq, event in enumerate(POOL[:40], start=1)]
    summary = _new_summary()
    try:
        ReproService(manager)._apply_lines(lines, 1, summary)
        routed = [event for event in POOL[:40] if event.event_type in job.event_types]
        assert len(routed) > 3
        assert summary["rejected"] == 0 and summary["accepted"] == len(routed)
        assert wire(job.log) == wire(routed) and job.reserved == 0
    finally:
        manager.stop()


def test_http_and_tcp_split_a_body_into_the_same_lines(tmp_path):
    """A bare "\\r" is whitespace inside a JSON line on both transports."""
    manager = JobManager(ServiceConfig(state_dir=str(tmp_path)))
    manager.submit(JOBS[0])
    service = ReproService(manager)
    body = b"\n".join(
        event_line(event, seq, cr=seq % 2 == 1)
        for seq, event in enumerate(POOL[:6], start=1)
    )
    status, summary = asyncio.run(service._route("POST", "/ingest", body))
    assert status == 200 and summary["errors"] == []
    routed = [event for event in POOL[:6] if event.event_type in ("Q", "V")]
    assert summary["accepted"] == len(routed)
    replayed = [event_from_wire(doc) for doc, _ids in manager.state.replay_wal()]
    assert wire(replayed) == wire(routed)
    manager.stop()


def test_a_rejected_events_retry_is_admitted_once(tmp_path):
    """Only a taken event moves its source's dedup horizon: a seq that
    ``reject`` refused, re-sent after a round as ``retry_after_ms``
    says, is admitted rather than dropped as a duplicate, and the WAL
    holds it once."""
    manager = JobManager(
        ServiceConfig(state_dir=str(tmp_path), queue_limit=1, admission="reject")
    )
    try:
        job = manager.jobs[manager.submit(JOBS[1])["id"]]
        first, second = [e for e in POOL if e.event_type in job.event_types][:2]
        assert manager.ingest_event(first, SOURCE, 1) == {"accepted": 1}
        refused = manager.ingest_event(second, SOURCE, 2)
        assert refused["accepted"] == 0
        assert [r["reason"] for r in refused["rejections"]] == ["queue-full"]
        manager.run_round(job)
        assert manager.ingest_event(second, SOURCE, 2) == {"accepted": 1}
        assert manager.ingest_event(second, SOURCE, 2)["duplicate"]
        assert [doc["seq"] for doc, _ids in manager.state.replay_wal()] == [1, 2]
        assert manager.tracker.last_seq == {SOURCE: 2}
    finally:
        manager.stop()

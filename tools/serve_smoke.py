#!/usr/bin/env python
"""End-to-end smoke of `repro serve` for CI (and local debugging).

Boots the real server as a subprocess (`python -m repro serve`, ephemeral
ports, durable state dir, stdout/stderr captured to ``--log``), then
drives it exactly like a tenant would:

1. submit the catalog queries over the HTTP control API — as separate
   jobs, or (``--group``) as one shared-scan tenant group, at the
   server's default batch size, plus one job whose rounds run batches
   of one (``"batch_size": 1``), and one
   serial job of an order-sensitive query (the NSEQ
   ``congestion-cleared``, whose plan is not ``reorder_safe``: its
   batches must keep the arrival order);
   ``--sharded`` additionally submits an
   O3-partitioned inline pattern whose rounds run on the sharded
   backend;
2. stream the merged QnV/air-quality workload over the TCP ingestion
   socket (per-source sequence numbers, watermark heartbeats every 500
   events). With ``--kill-after N`` the server is SIGKILLed after N
   events, restarted against the same ``--state-dir``, checked for
   resumed jobs, and the *whole* stream is re-sent (the durable prefix
   must deduplicate);
3. drain, and assert every query's matches are byte-identical to the
   one-shot batch reference computed in this process;
4. assert the metrics endpoint serves a ``repro.metrics/v1`` tree with
   the admission counters and a ``job.sink_items`` equal to the matches
   the job serves, and the checkpoints endpoint a non-empty
   durable chain; on the plain run (serial jobs, no kill) also that
   ``rounds.events_read`` equals ``events_processed`` — every round read
   only the log's unread suffix, held as a count, not a timing;
5. stop the server with SIGTERM and require a clean graceful-drain exit.

Exits nonzero on any mismatch; ``--report`` writes a JSON summary that
``tools/render_step_summary.py serve`` renders for the step summary.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py --events 2000 \
        --report serve-smoke-report.json --log serve-smoke.log
    PYTHONPATH=src python tools/serve_smoke.py --events 2000 \
        --group --sharded --kill-after 900 --report serve-restart.json
    PYTHONPATH=src python tools/serve_smoke.py --events 2000 \
        --kill-after 900 --admission block --queue-limit 64
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.asp.operators.source import ListSource  # noqa: E402
from repro.asp.runtime import ExecutionSettings, SerialBackend  # noqa: E402
from repro.asp.runtime.fault.chaos import canonical_match_bytes  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.experiments.common import Scale, qnv_aq_workload  # noqa: E402
from repro.mapping.optimizations import TranslationOptions  # noqa: E402
from repro.mapping.advisor import recommend_options  # noqa: E402
from repro.mapping.translator import translate  # noqa: E402
from repro.patterns import CATALOG  # noqa: E402
from repro.runtime.service import (  # noqa: E402
    ServiceClient,
    merge_streams_for_wire,
    stream_events,
)
from repro.sea.parser import parse_pattern  # noqa: E402

QUERIES = ("traffic-congestion", "street-lighting-demand")
#: The --sharded job: an O3-partitioned pattern the RA40x proof accepts.
SHARDED_NAME = "sharded-id"
SHARDED_PATTERN = "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES"
#: Always-submitted job at batch size 1: the same catalog query as one of
#: the default-size jobs, but its rounds run batches of one — both sizes
#: are then held to the one-shot reference (itself batches of one), byte
#: for byte, end to end through the service.
PER_EVENT_NAME = "tc-per-event"
PER_EVENT_QUERY = "traffic-congestion"
#: Always-submitted serial job of an order-sensitive catalog query.
ORDERED_QUERY = "congestion-cleared"


def build_streams(events: int, seed: int) -> dict[str, list]:
    """Workload with per-type ts offsets (unique cross-type timestamps,
    so the wire order matches the batch scan-merge order)."""
    scale = Scale(events=events, sensors=8, seed=seed)
    streams = {t: list(evs) for t, evs in qnv_aq_workload(scale).items()}
    for offset, evs in enumerate(streams.values()):
        for event in evs:
            event.ts += offset
    return streams


def _batch_bytes(pattern, options, streams: dict[str, list]) -> bytes:
    sources = {
        t: ListSource(streams[t], name=f"batch[{t}]", event_type=t)
        for t in pattern.distinct_event_types()
    }
    query = translate(pattern, sources, options)
    query.attach_sink()
    settings = ExecutionSettings(watermark_interval=query.plan.window_slide)
    SerialBackend().execute(query.env.flow, settings)
    return canonical_match_bytes(query.matches())


def batch_reference(query_name: str, streams: dict[str, list]) -> bytes:
    if query_name == SHARDED_NAME:
        pattern = parse_pattern(SHARDED_PATTERN, name=SHARDED_NAME)
        return _batch_bytes(
            pattern, TranslationOptions(partition_attribute="id"), streams
        )
    if query_name == PER_EVENT_NAME:
        query_name = PER_EVENT_QUERY
    pattern = CATALOG[query_name]()
    return _batch_bytes(pattern, recommend_options(pattern).options, streams)


def reorder_safe(query_name: str) -> bool:
    """Whether every operator of the query's plan is ``reorder_safe``."""
    pattern = CATALOG[query_name]()
    sources = {t: ListSource([], event_type=t) for t in pattern.distinct_event_types()}
    query = translate(pattern, sources, recommend_options(pattern).options)
    return all(node.operator.reorder_safe for node in query.env.flow.operator_nodes())


def wait_for_ready(path: Path, proc: subprocess.Popen, timeout: float) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early with {proc.returncode}")
        if path.exists():
            return json.loads(path.read_text())
        time.sleep(0.1)
    raise RuntimeError(f"server not ready within {timeout}s")


def start_server(
    tmp: str, log_file, state_dir: str | None, ready_name: str, admission: list[str]
) -> tuple[subprocess.Popen, Path]:
    ready_file = Path(tmp) / ready_name
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--http-port", "0",
        "--tcp-port", "0",
        "--ready-file", str(ready_file),
        "--checkpoint-interval", "100",
        *admission,
    ]
    if state_dir is not None:
        cmd += ["--state-dir", state_dir]
    else:
        cmd += ["--checkpoint-dir", str(Path(tmp) / "checkpoints")]
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=log_file,
        stderr=subprocess.STDOUT,
        cwd=str(REPO_ROOT),
    )
    return proc, ready_file


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--group", action="store_true",
                        help="co-submit the catalog queries as one "
                             "shared-scan tenant group")
    parser.add_argument("--sharded", action="store_true",
                        help="also submit an O3-partitioned job that runs "
                             "on the sharded backend")
    parser.add_argument("--kill-after", type=int, metavar="N",
                        help="SIGKILL the server after N streamed events, "
                             "restart against the same state dir, and "
                             "re-send the whole stream")
    parser.add_argument("--state-dir", metavar="DIR",
                        help="durable state root (default: a temp dir; "
                             "required implicitly by --kill-after)")
    parser.add_argument("--admission", choices=("reject", "block"),
                        help="passed to `repro serve` (its default: reject)")
    parser.add_argument("--queue-limit", type=int, metavar="N",
                        help="passed to `repro serve` (its default: 10000)")
    parser.add_argument("--report", metavar="PATH", help="write the JSON summary here")
    parser.add_argument(
        "--log", metavar="PATH", default="serve-smoke.log", help="server stdout/stderr capture"
    )
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args(argv)

    report: dict = {
        "ok": False,
        "queries": {},
        "events_streamed": 0,
        "mode": {
            "group": args.group,
            "sharded": args.sharded,
            "kill_after": args.kill_after,
            "admission": args.admission,
            "queue_limit": args.queue_limit,
        },
    }
    admission: list[str] = []
    if args.admission is not None:
        admission += ["--admission", args.admission]
    if args.queue_limit is not None:
        admission += ["--queue-limit", str(args.queue_limit)]
    failures: list[str] = []
    log_file = open(args.log, "w")
    with tempfile.TemporaryDirectory() as tmp:
        durable = args.kill_after is not None or args.state_dir is not None
        state_dir = args.state_dir or (str(Path(tmp) / "state") if durable else None)
        proc, ready_file = start_server(tmp, log_file, state_dir, "ready.json", admission)
        try:
            ports = wait_for_ready(ready_file, proc, args.timeout)
            client = ServiceClient(
                ports["host"], ports["http_port"], retries=3, backoff_base_ms=100
            )
            print(f"server up: http={ports['http_port']} tcp={ports['tcp_port']}")

            # A malformed override is the client's error: a structured
            # 400, never an `internal` 500.
            try:
                client.submit({"query": QUERIES[0], "batch_size": "x"})
                failures.append("malformed submit was accepted")
            except ServiceError as exc:
                if exc.status != 400:
                    failures.append(
                        f"malformed submit answered HTTP {exc.status} "
                        f"({exc.code}), expected 400"
                    )

            jobs: dict[str, str] = {}  # query name -> serving job id
            if args.group:
                info = client.submit({"name": "group", "queries": list(QUERIES)})
                for query_name in QUERIES:
                    jobs[query_name] = info["id"]
                print(
                    f"submitted tenant group {info['id']}: "
                    f"{info['queries']} (shared scans: {info['shared_scans']})"
                )
                if not (info["sharing"] and info["sharing"]["ok"]):
                    failures.append("tenant group lacks a sharing proof")
            else:
                for query_name in QUERIES:
                    info = client.submit({"name": query_name, "query": query_name})
                    jobs[query_name] = info["id"]
                    print(f"submitted {query_name} -> {info['id']}")
            info = client.submit({
                "name": PER_EVENT_NAME,
                "query": {"catalog": PER_EVENT_QUERY, "name": PER_EVENT_NAME},
                "batch_size": 1,
            })
            jobs[PER_EVENT_NAME] = info["id"]
            print(f"submitted {PER_EVENT_NAME} -> {info['id']} (batches of one)")
            info = client.submit(
                {"name": ORDERED_QUERY, "query": ORDERED_QUERY, "backend": "serial"}
            )
            jobs[ORDERED_QUERY] = info["id"]
            print(f"submitted {ORDERED_QUERY} -> {info['id']} (order-sensitive)")
            if info["backend"] != "serial" or reorder_safe(ORDERED_QUERY):
                failures.append(f"{ORDERED_QUERY}: expected an order-sensitive serial job")
            if args.sharded:
                info = client.submit({
                    "name": SHARDED_NAME,
                    "query": {
                        "pattern": SHARDED_PATTERN,
                        "name": SHARDED_NAME,
                        "options": {"o3": "id"},
                    },
                    "shards": 2,
                })
                jobs[SHARDED_NAME] = info["id"]
                print(
                    f"submitted {SHARDED_NAME} -> {info['id']} "
                    f"(backend={info['backend']}, shards={info['shards']})"
                )
                if info["backend"] != "sharded":
                    failures.append(
                        f"{SHARDED_NAME}: expected the sharded backend, "
                        f"got {info['backend']}"
                    )

            streams = build_streams(args.events, args.seed)
            wire = list(merge_streams_for_wire(streams))

            if args.kill_after is not None:
                prefix = wire[: args.kill_after]
                summary = stream_events(
                    ports["host"], ports["tcp_port"], prefix,
                    source="smoke", watermark_every=500, timeout=args.timeout,
                )
                print(
                    f"streamed {len(prefix)} events pre-kill: "
                    f"accepted={summary['accepted']}"
                )
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=args.timeout)
                print(f"killed server (SIGKILL) after {len(prefix)} events; "
                      "restarting against the same --state-dir")
                report["killed_after"] = len(prefix)
                proc, ready_file = start_server(
                    tmp, log_file, state_dir, "ready-restart.json", admission
                )
                ports = wait_for_ready(ready_file, proc, args.timeout)
                client = ServiceClient(
                    ports["host"], ports["http_port"],
                    retries=5, backoff_base_ms=100,
                )
                resumed = client.server_metrics().get("resumed") or {}
                report["resumed"] = resumed
                missing = sorted(set(jobs.values()) - set(resumed.get("jobs", [])))
                if missing:
                    failures.append(f"jobs not resumed after restart: {missing}")
                else:
                    print(
                        f"restart resumed jobs={resumed['jobs']} "
                        f"wal_events={resumed['wal_events']}"
                    )
                for job_id in sorted(set(jobs.values())):
                    status = client.job(job_id)
                    if status["state"] != "running":
                        failures.append(
                            f"{job_id}: resumed in state {status['state']}"
                        )

            # The full stream — after a kill this is the producer's
            # re-send: the durable prefix must dedup, the rest is fresh.
            summary = stream_events(
                ports["host"], ports["tcp_port"], wire,
                source="smoke", watermark_every=500, timeout=args.timeout,
            )
            report["events_streamed"] = len(wire)
            report["duplicates_on_replay"] = summary["duplicates"]
            print(
                f"streamed {len(wire)} events: accepted={summary['accepted']} "
                f"duplicates={summary['duplicates']} "
                f"rejected={summary['rejected']} errors={len(summary['errors'])}"
            )
            if summary["errors"]:
                failures.append(f"ingest errors: {summary['errors'][:3]}")
            if summary["rejected"]:
                failures.append(f"{summary['rejected']} events rejected")
            if args.kill_after is not None and not summary["duplicates"]:
                failures.append("replay after restart deduplicated nothing")

            client.drain()

            plain = not (args.group or args.sharded or args.kill_after is not None)
            rounds = checkpoints = events_read = 0
            sink_items: dict[str, int] = {}
            for job_id in sorted(set(jobs.values())):
                metrics = client.metrics(job_id)
                if metrics.get("schema") != "repro.metrics/v1":
                    failures.append(f"{job_id}: bad metrics schema")
                sink_items[job_id] = metrics["job"]["sink_items"]
                ingress = metrics["service"]["ingress"]["ingress"]
                if ingress["admission.accepted"]["value"] <= 0:
                    failures.append(f"{job_id}: no admission accounting")
                rounds += metrics["service"]["rounds"]
                read = metrics["service"]["ingress"]["rounds"]["events_read"]["value"]
                events_read += read
                processed = client.job(job_id)["events_processed"]
                if plain and read != processed:
                    failures.append(
                        f"{job_id}: rounds read {read} log events to process "
                        f"{processed} (a round must read only its suffix)"
                    )
                chain = client.checkpoints(job_id)
                if not (chain["durable"] and chain["entries"]):
                    failures.append(f"{job_id}: no durable checkpoints")
                checkpoints += chain["coordinator"]["count"]

            served_items = dict.fromkeys(sink_items, 0)
            for query_name, job_id in jobs.items():
                batch = batch_reference(query_name, streams)
                served_keys = client.matches(job_id)["queries"][query_name]["keys"]
                served_items[job_id] += len(served_keys)
                served = "\n".join(served_keys).encode("utf-8")
                identical = served == batch
                row = {
                    "job": job_id,
                    "server_matches": len(served_keys),
                    "batch_matches": len(batch.split(b"\n")) if batch else 0,
                    "identical": identical,
                }
                report["queries"][query_name] = row
                print(
                    f"{query_name}: server={row['server_matches']} "
                    f"batch={row['batch_matches']} identical={identical}"
                )
                if not identical:
                    failures.append(f"{query_name}: server != batch")
            # Operator counts are totals of the job, whatever the rounds,
            # shards and restarts: its sinks accepted what it serves.
            for job_id, items in sink_items.items():
                if items != served_items[job_id]:
                    failures.append(
                        f"{job_id}: metrics count {items} sink items for "
                        f"{served_items[job_id]} served matches"
                    )
            report["rounds"] = rounds
            report["checkpoints"] = checkpoints
            report["events_read"] = events_read

            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=args.timeout)
            if proc.returncode != 0:
                failures.append(f"server exit code {proc.returncode}")
            else:
                print("server drained and exited cleanly")
        except Exception as exc:  # noqa: BLE001 - report, then fail the job
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            log_file.close()

    report["ok"] = not failures
    report["failures"] = failures
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    if failures:
        print("FAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

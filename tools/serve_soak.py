#!/usr/bin/env python
"""Multi-tenant soak of `repro serve` for CI (and local debugging).

Boots an in-process service (real HTTP control + TCP ingest servers,
``start_in_thread``) and keeps eight tenants busy for a wall-clock
budget: a shared-scan tenant group plus individual jobs, with events
streaming over TCP the whole time and a churn loop cancelling tenants
and submitting replacements — the steady-state life of a multi-tenant
server rather than one submit/drain pass.

The gate is lifecycle hygiene, not byte-identity (the smoke covers
that): after the final drain every job ever submitted must sit in a
terminal state (``drained``/``cancelled``), none ``failed``, none stuck
``running``. The JSON report carries queue-depth and round-latency
gauges (max depth seen, trigger-latency/duration/round-size histograms
merged across jobs) for the step summary, plus the
mean round duration of the long-lived group job over the first and the
last tenth of its rounds, and the same per thousand events processed
(rounds grow with the backlog): that ratio is how much an event's cost
grew with the log.

Usage::

    PYTHONPATH=src python tools/serve_soak.py --seconds 30 \
        --report serve-soak-report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.asp.runtime.observability.registry import percentile_from_buckets  # noqa: E402
from repro.experiments.common import Scale, qnv_aq_workload  # noqa: E402
from repro.runtime.service import (  # noqa: E402
    ServiceClient,
    ServiceConfig,
    merge_streams_for_wire,
    start_in_thread,
    stream_events,
)

#: The persistent shared-scan tenant group (sharing proof known to pass).
GROUP_QUERIES = ("traffic-congestion", "street-lighting-demand")
#: Churned individual tenants: congestion window variants, the realistic
#: per-tenant parameterization of one catalog detector.
VARIANT_PATTERN = (
    "PATTERN SEQ(Q q1, V v1) WHERE q1.value > 80.0 AND v1.value < 30.0 "
    "AND q1.id = v1.id WITHIN {w} MINUTES SLIDE 1 MINUTE"
)
VARIANT_WINDOWS = (8, 9, 10, 11, 12, 13)
TENANTS = len(GROUP_QUERIES) + len(VARIANT_WINDOWS)


def build_wire(events: int, seed: int) -> list:
    """Merged workload with unique cross-type timestamps (as the smoke)."""
    scale = Scale(events=events, sensors=8, seed=seed)
    streams = {t: list(evs) for t, evs in qnv_aq_workload(scale).items()}
    for offset, evs in enumerate(streams.values()):
        for event in evs:
            event.ts += offset
    return list(merge_streams_for_wire(streams))


def submit_variant(client: ServiceClient, window: int, generation: int) -> str:
    name = f"tenant-w{window}g{generation}"
    info = client.submit({
        "name": name,
        "query": {"pattern": VARIANT_PATTERN.format(w=window), "name": name},
    })
    return info["id"]


def merge_histograms(snapshots: list[dict], unit: str = "ms") -> dict:
    """Merge same-bounds histogram snapshots; report count/mean/p95/max."""
    live = [s for s in snapshots if s.get("count")]
    if not live:
        return {"count": 0, f"mean_{unit}": 0.0, f"p95_{unit}": 0.0, f"max_{unit}": 0.0}
    bounds = live[0]["bounds"]
    counts = [0] * (len(bounds) + 1)
    for snap in live:
        for index, value in enumerate(snap["counts"]):
            counts[index] += value
    count = sum(s["count"] for s in live)
    total = sum(s["sum"] for s in live)
    vmin = min(s["min"] for s in live)
    vmax = max(s["max"] for s in live)
    return {
        "count": count,
        f"mean_{unit}": round(total / count, 3),
        f"p95_{unit}": round(
            percentile_from_buckets(bounds, counts, count, vmin, vmax, 95), 3
        ),
        f"max_{unit}": round(vmax, 3),
    }


def decile_round_ms(samples: list[tuple[int, float, int]]) -> dict:
    """Mean round duration, and duration per thousand events, over the
    first and the last tenth of a job's rounds, from ``(rounds, sum_ms,
    events_processed)`` readings of what the job publishes, taken as the
    soak went (the reading nearest each tenth)."""
    rounds, total_ms, events = samples[-1] if samples else (0, 0.0, 0)
    head = next((s for s in samples if s[0] >= rounds / 10), None)
    tail = next((s for s in reversed(samples) if s[0] <= rounds - rounds / 10), None)
    if rounds < 10 or not head[2] or events == tail[2]:
        return {"rounds": rounds}
    first_ms, last_ms = head[1], total_ms - tail[1]
    first_kev = first_ms / head[2] * 1000.0
    last_kev = last_ms / (events - tail[2]) * 1000.0
    return {
        "rounds": rounds,
        "first_decile_ms": round(first_ms / head[0], 3),
        "last_decile_ms": round(last_ms / (rounds - tail[0]), 3),
        "first_decile_ms_per_kevent": round(first_kev, 3),
        "last_decile_ms_per_kevent": round(last_kev, 3),
        "growth_ratio": round(last_kev / first_kev, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall-clock soak budget (default 30)")
    parser.add_argument("--events", type=int, default=24000,
                        help="workload size generated up front (default 24000)")
    parser.add_argument("--chunk", type=int, default=400,
                        help="events streamed per tick (default 400)")
    parser.add_argument("--churn-every", type=int, default=3, metavar="TICKS",
                        help="cancel+replace one tenant every N ticks (default 3)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--report", metavar="PATH", help="write the JSON summary here")
    args = parser.parse_args(argv)

    report: dict = {
        "ok": False,
        "seconds": args.seconds,
        "tenants": TENANTS,
        "jobs": {},
        "gauges": {},
    }
    failures: list[str] = []
    wire = build_wire(args.events, args.seed)
    job_names: dict[str, str] = {}  # job id -> display name
    depth_max: dict[str, int] = {}
    #: Per tick, the group job's (rounds, summed round ms, events processed).
    group_rounds: list[tuple[int, float, int]] = []
    submitted = cancelled = 0
    streamed = duplicates = rejected = 0

    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            state_dir=str(Path(tmp) / "state"),
            checkpoint_interval=500,
        )
        handle = start_in_thread(config)
        try:
            client = ServiceClient(
                handle.host, handle.http_port, retries=3, backoff_base_ms=100
            )
            print(f"service up: http={handle.http_port} tcp={handle.tcp_port}")

            info = client.submit({"name": "group", "queries": list(GROUP_QUERIES)})
            group_id = info["id"]
            job_names[group_id] = f"group({', '.join(GROUP_QUERIES)})"
            submitted += 1
            if not (info["sharing"] and info["sharing"]["ok"]):
                failures.append("tenant group lacks a sharing proof")

            variants: list[tuple[int, str]] = []  # (window, job id), oldest first
            for window in VARIANT_WINDOWS:
                variants.append((window, submit_variant(client, window, 0)))
                job_names[variants[-1][1]] = f"tenant-w{window}g0"
                submitted += 1
            print(f"{TENANTS} tenants live: group {group_id} + "
                  f"{len(variants)} congestion variants")

            deadline = time.monotonic() + args.seconds
            tick = generation = 0
            offset = 0
            group_tenant_cancelled = False
            while time.monotonic() < deadline:
                tick += 1
                chunk = wire[offset:offset + args.chunk]
                offset += len(chunk)
                if chunk:
                    summary = stream_events(
                        handle.host, handle.tcp_port, chunk,
                        source="soak", start_seq=streamed + 1,
                        watermark_every=10 * args.chunk,
                    )
                    streamed += len(chunk)
                    duplicates += summary["duplicates"]
                    rejected += summary["rejected"]
                    if summary["errors"]:
                        failures.append(f"ingest errors: {summary['errors'][:3]}")
                        break
                for status in client.jobs():
                    depth = status["queue_depth"]
                    if depth > depth_max.get(status["id"], -1):
                        depth_max[status["id"]] = depth
                    if status["id"] == group_id:
                        duration = client.metrics(group_id)["service"]["ingress"][
                            "rounds"]["duration_ms"]
                        group_rounds.append((
                            duration["count"], duration["sum"],
                            status["events_processed"],
                        ))
                    if status["state"] == "failed":
                        failures.append(
                            f"{status['id']} failed mid-soak: {status['failure']}"
                        )
                if any("failed mid-soak" in f for f in failures):
                    break
                if tick % args.churn_every == 0:
                    # Cancel the oldest variant tenant, submit a fresh one.
                    generation += 1
                    window, victim = variants.pop(0)
                    client.cancel(victim)
                    cancelled += 1
                    replacement = submit_variant(client, window, generation)
                    job_names[replacement] = f"tenant-w{window}g{generation}"
                    variants.append((window, replacement))
                    submitted += 1
                elif not group_tenant_cancelled and tick > 2 * args.churn_every:
                    # Once, mid-soak: cancel one tenant inside the shared
                    # group; the group (and its other tenant) must survive.
                    client.cancel_tenant(group_id, GROUP_QUERIES[1])
                    group_tenant_cancelled = True
                    cancelled += 1

            print(
                f"soak loop done: {tick} ticks, {streamed} events streamed, "
                f"{submitted} submits, {cancelled} cancels, "
                f"rejected={rejected} duplicates={duplicates}"
            )
            if not group_tenant_cancelled:
                failures.append("soak too short to exercise tenant cancel")

            client.drain()

            trigger_snaps: list[dict] = []
            duration_snaps: list[dict] = []
            size_snaps: list[dict] = []
            rounds = 0
            for status in client.jobs():
                job_id = status["id"]
                if status["state"] not in ("drained", "cancelled"):
                    failures.append(
                        f"{job_id} ({job_names.get(job_id, '?')}) stuck "
                        f"non-terminal after drain: {status['state']}"
                    )
                rounds += status["rounds"]
                report["jobs"][job_id] = {
                    "name": job_names.get(job_id, status["name"]),
                    "state": status["state"],
                    "rounds": status["rounds"],
                    "events_processed": status["events_processed"],
                    "queue_depth_max": depth_max.get(job_id, 0),
                    "matches": sum(status["matches"].values()),
                }
                metrics = client.metrics(job_id)["service"]["ingress"]
                rounds_scope = metrics.get("rounds", {})
                trigger_snaps.append(rounds_scope.get("trigger_latency_ms", {}))
                duration_snaps.append(rounds_scope.get("duration_ms", {}))
                size_snaps.append(rounds_scope.get("events_per_round", {}))

            group_status = client.job(group_id)
            if group_status["tenants"].get(GROUP_QUERIES[1]) != "cancelled":
                failures.append("group tenant cancel did not stick")
            if group_status["matches"][GROUP_QUERIES[0]] <= 0:
                failures.append("surviving group tenant produced no matches")

            report["gauges"] = {
                "queue_depth_max": max(depth_max.values(), default=0),
                "round_trigger_latency_ms": merge_histograms(trigger_snaps),
                "round_duration_ms": merge_histograms(duration_snaps),
                "group_round_deciles": decile_round_ms(group_rounds),
                "events_per_round": merge_histograms(size_snaps, unit="events"),
            }
            report.update(
                events_streamed=streamed,
                duplicates=duplicates,
                rejected=rejected,
                submitted=submitted,
                cancelled=cancelled,
                rounds=rounds,
            )
            gauges = report["gauges"]
            print(
                f"gauges: queue_depth_max={gauges['queue_depth_max']} "
                f"trigger_p95={gauges['round_trigger_latency_ms']['p95_ms']}ms "
                f"duration_p95={gauges['round_duration_ms']['p95_ms']}ms "
                f"events_per_round_p95={gauges['events_per_round']['p95_events']} "
                f"group_round_growth={gauges['group_round_deciles'].get('growth_ratio')}"
            )
        except Exception as exc:  # noqa: BLE001 - report, then fail the job
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            handle.stop()

    report["ok"] = not failures
    report["failures"] = failures
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    if failures:
        print("FAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    print(f"serve soak: OK ({TENANTS} tenants, {submitted} submits, "
          f"{cancelled} cancels)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

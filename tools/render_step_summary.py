#!/usr/bin/env python
"""Render CI reports as GitHub step-summary markdown.

Reads one of this repo's JSON report formats and prints a compact
markdown table, meant to be appended to ``$GITHUB_STEP_SUMMARY`` so the
run page shows the result without downloading artifacts::

    python tools/render_step_summary.py chaos chaos-report.json >> "$GITHUB_STEP_SUMMARY"
    python tools/render_step_summary.py bench benchmarks/results/summary.json >> "$GITHUB_STEP_SUMMARY"
    python tools/render_step_summary.py serve serve-smoke-report.json >> "$GITHUB_STEP_SUMMARY"

Formats:

``chaos``  a ``repro chaos --report`` file: per-query crash/recover
           verdicts (serial + sharded) and the overall gate.
``bench``  a ``benchmarks/results/summary.json`` written by
           ``benchmarks.common.record_rows``: per-cell throughput.
``serve``  a ``tools/serve_smoke.py --report`` file: per-query
           server-vs-batch match counts and byte-identity (plus the
           kill−9/resume/replay line in ``--kill-after`` runs).
``soak``   a ``tools/serve_soak.py --report`` file: tenant lifecycle
           table and queue-depth/round-latency gauges.
``lint``   a ``repro lint --report`` file (``repro.lint/v1``): per-code
           diagnostic counts and the worst findings.

Missing files render a note instead of failing — summaries must never
mask the real job status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cell(text: object) -> str:
    """Escape markdown table delimiters inside cell content."""
    return str(text).replace("|", "\\|")


def render_chaos(report: dict) -> list[str]:
    lines = [
        "## Chaos suite",
        "",
        "| query | clean matches | serial crash | sharded crash |",
        "| --- | ---: | --- | --- |",
    ]
    for query in report.get("queries", []):
        serial = query["serial"]
        sharded = query["sharded"]
        serial_ok = "ok" if serial["match"] else "**MISMATCH**"
        serial_cell = f"{serial_ok} (restarts={serial['restarts']})"
        if sharded.get("skipped"):
            sharded_cell = f"skipped ({sharded['skipped']})"
        else:
            sharded_ok = "ok" if sharded["match"] else "**MISMATCH**"
            sharded_cell = f"{sharded_ok} (restarts={sharded['restarts']})"
        lines.append(
            f"| {_cell(query['pattern'])} | {query['clean_matches']} "
            f"| {serial_cell} | {sharded_cell} |"
        )
    verdict = "**OK**" if report.get("ok") else "**FAIL**"
    lines += ["", f"Verdict: {verdict}"]
    return lines


def render_bench(report: dict) -> list[str]:
    lines = ["## Benchmark summary", ""]
    for name, experiment in sorted(report.get("experiments", {}).items()):
        lines += [
            f"### {name}",
            "",
            "| cell | events | matches | throughput (ev/s) |",
            "| --- | ---: | ---: | ---: |",
        ]
        for cell, row in sorted(experiment.get("cells", {}).items()):
            status = " (failed)" if row.get("failed") else ""
            events = row.get("events_in", "-")
            matches = row.get("matches", "-")
            throughput = row.get("throughput_tps", 0)
            lines.append(f"| {_cell(cell)}{status} | {events} | {matches} | {throughput:,.0f} |")
        lines.append("")
    return lines


def render_serve(report: dict) -> list[str]:
    mode = report.get("mode", {})
    title = "## Serve smoke"
    if mode.get("kill_after") is not None:
        title = "## Serve restart (kill −9 → resume → replay)"
    lines = [
        title,
        "",
        f"Streamed **{report.get('events_streamed', '?')}** events over TCP "
        f"to {len(report.get('queries', {}))} live queries "
        f"({report.get('rounds', '?')} processing rounds reading "
        f"{report.get('events_read', '?')} log events, "
        f"{report.get('checkpoints', '?')} checkpoints).",
        "",
    ]
    flags = [k for k in ("group", "sharded") if mode.get(k)]
    if mode.get("admission"):
        flags.append(f"{mode['admission']} admission")
    if mode.get("queue_limit"):
        flags.append(f"queue limit {mode['queue_limit']}")
    if flags:
        lines += [f"Mode: {', '.join(flags)}.", ""]
    if mode.get("kill_after") is not None:
        resumed = report.get("resumed") or {}
        lines += [
            f"SIGKILLed the server after **{report.get('killed_after', '?')}** "
            f"events; the restart resumed jobs "
            f"{', '.join(resumed.get('jobs', [])) or '(none)'} from "
            f"{resumed.get('wal_events', '?')} WAL events, and the full-stream "
            f"re-send deduplicated **{report.get('duplicates_on_replay', '?')}** "
            "durable duplicates.",
            "",
        ]
    lines += [
        "| query | server matches | batch matches | byte-identical |",
        "| --- | ---: | ---: | --- |",
    ]
    for name, row in sorted(report.get("queries", {}).items()):
        identical = "yes" if row.get("identical") else "**NO**"
        server = row.get("server_matches", "-")
        batch = row.get("batch_matches", "-")
        lines.append(f"| {name} | {server} | {batch} | {identical} |")
    verdict = "**OK**" if report.get("ok") else "**FAIL**"
    lines += ["", f"Verdict: {verdict}"]
    return lines


def render_soak(report: dict) -> list[str]:
    gauges = report.get("gauges", {})
    trigger = gauges.get("round_trigger_latency_ms", {})
    duration = gauges.get("round_duration_ms", {})
    sizes = gauges.get("events_per_round", {})
    deciles = gauges.get("group_round_deciles", {})
    lines = [
        "## Serve soak",
        "",
        f"**{report.get('tenants', '?')}** tenants for "
        f"{report.get('seconds', '?')} s: {report.get('events_streamed', '?')} "
        f"events streamed, {report.get('submitted', '?')} submits, "
        f"{report.get('cancelled', '?')} cancels, "
        f"{report.get('rounds', '?')} processing rounds "
        f"(trigger latency p95 {trigger.get('p95_ms', '?')} ms, "
        f"max {trigger.get('max_ms', '?')} ms).",
        "",
        f"Queue depth max **{gauges.get('queue_depth_max', '?')}**; "
        f"events per round mean {sizes.get('mean_events', '?')}, "
        f"p95 {sizes.get('p95_events', '?')}; "
        f"round duration p95 {duration.get('p95_ms', '?')} ms.",
        "",
        f"Group job, {deciles.get('rounds', '?')} rounds: mean round "
        f"{deciles.get('first_decile_ms', '?')} ms over the first tenth, "
        f"{deciles.get('last_decile_ms', '?')} ms over the last; per "
        f"thousand events {deciles.get('first_decile_ms_per_kevent', '?')} ms "
        f"and {deciles.get('last_decile_ms_per_kevent', '?')} ms "
        f"(growth ratio **{deciles.get('growth_ratio', '?')}**).",
        "",
        "| job | tenant | state | rounds | events | matches | max queue |",
        "| --- | --- | --- | ---: | ---: | ---: | ---: |",
    ]
    for job_id, row in sorted(report.get("jobs", {}).items()):
        state = row.get("state", "?")
        if state not in ("drained", "cancelled"):
            state = f"**{state}**"
        lines.append(
            f"| {job_id} | {_cell(row.get('name', '?'))} | {state} "
            f"| {row.get('rounds', '-')} | {row.get('events_processed', '-')} "
            f"| {row.get('matches', '-')} | {row.get('queue_depth_max', '-')} |"
        )
    verdict = "**OK**" if report.get("ok") else "**FAIL**"
    lines += ["", f"Verdict: {verdict}"]
    return lines


def render_lint(report: dict) -> list[str]:
    mode = report.get("mode", "plan")
    lines = [
        f"## Static analysis ({mode} lint)",
        "",
        f"{report.get('errors', '?')} error(s), "
        f"{report.get('warnings', '?')} warning(s) over "
        f"{len(report.get('reports', []))} target(s).",
        "",
    ]
    diags = [
        (sub.get("target", ""), d)
        for sub in report.get("reports", [])
        for d in sub.get("diagnostics", [])
    ]
    if diags:
        lines += [
            "| severity | code | target | message |",
            "| --- | --- | --- | --- |",
        ]
        order = {"error": 0, "warning": 1}
        diags.sort(key=lambda td: (order.get(td[1].get("severity"), 2), td[1].get("code", "")))
        for target, diag in diags[:20]:
            severity = diag.get("severity", "?")
            if severity == "error":
                severity = "**error**"
            where = diag.get("where") or target
            lines.append(
                f"| {severity} | `{diag.get('code', '?')}` "
                f"| {_cell(where)} | {_cell(diag.get('message', ''))} |"
            )
        if len(diags) > 20:
            lines.append(f"| … | | | {len(diags) - 20} more |")
        lines.append("")
    # Sharing proofs: surface what was proven, not only what failed.
    for sub in report.get("reports", []):
        for group in sub.get("groups", []) or []:
            shared = " AND ".join(group.get("shared_filters", []))
            lines.append(
                f"- shared prefix ({group.get('level')}): `{group.get('event_type')}`"
                f" [{_cell(shared)}] across {', '.join(group.get('queries', []))}"
            )
    verdict = "**OK**" if report.get("ok") else "**FAIL**"
    lines += ["", f"Verdict: {verdict}"]
    return lines


RENDERERS = {
    "chaos": render_chaos,
    "bench": render_bench,
    "serve": render_serve,
    "soak": render_soak,
    "lint": render_lint,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=sorted(RENDERERS))
    parser.add_argument("report", help="path to the JSON report")
    args = parser.parse_args(argv)

    path = Path(args.report)
    if not path.exists():
        print(f"_No {args.kind} report at `{path}` (step skipped or failed)._")
        return 0
    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"_Unreadable {args.kind} report at `{path}`: {exc}_")
        return 0
    print("\n".join(RENDERERS[args.kind](report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

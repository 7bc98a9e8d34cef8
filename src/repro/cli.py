"""Command-line interface: run CEP patterns on the ASP engine from a shell.

Subcommands
-----------

``explain``   parse a pattern, print its logical plan and SQL view; with
``--optimize`` also the per-rule rewrite trace (fired and declined rules,
cost estimates, chosen vs rejected alternatives)::

    python -m repro explain -p "PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES" --o1
    python -m repro explain --catalog --optimize static

``generate``  write synthetic QnV / air-quality CSV streams::

    python -m repro generate --out data/ --segments 8 --minutes 600

``run``       execute a pattern over CSV streams (one file per type)::

    python -m repro run -p "PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES" \
        --stream Q=data/Q.csv --stream V=data/V.csv --engine both

``advise``    recommend optimizations from the streams' characteristics::

    python -m repro advise -p "..." --stream Q=data/Q.csv --stream V=data/V.csv

``metrics``   re-render a run report written by ``run --metrics-json``::

    python -m repro run --metrics-json out.json && python -m repro metrics out.json

``lint``      statically verify a pattern's mapped plan (repro.analysis)::

    python -m repro lint -p "PATTERN SEQ(Q a, V b) WITHIN 15 MINUTES" --o3 id
    python -m repro lint --catalog

``chaos``     seeded fault-injection over the catalog: crash every query
(serial + each shard once), recover from checkpoints, verify the output
is byte-identical to a clean run::

    python -m repro chaos --shards 2 --seed 7 --report chaos-report.json

``serve``     run the long-lived multi-tenant query service: HTTP control
API (submit/cancel/status/metrics/checkpoints), NDJSON event ingestion
over TCP and HTTP, checkpoint-backed jobs, graceful drain on SIGTERM::

    python -m repro serve --http-port 8181 --tcp-port 8182 \
        --state-dir /tmp/repro-state
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.asp.operators.source import ListSource
from repro.asp.runtime import (
    load_report,
    render_metrics_summary,
    resolve_backend,
    write_metrics_json,
)
from repro.asp.runtime.backends.base import DEFAULT_BATCH_SIZE
from repro.asp.time import minutes
from repro.cep.matches import dedup
from repro.cep.nfa import run_nfa
from repro.cep.pattern_api import from_sea_pattern
from repro.errors import ReproError, TranslationError
from repro.mapping.advisor import recommend_options, statistics_from_streams
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer import OPTIMIZE_MODES, resolve_cost_model
from repro.mapping.sql import render_sql
from repro.mapping.translator import translate
from repro.sea.parser import parse_pattern
from repro.workloads.airquality import AirQualityConfig, aq_streams
from repro.workloads.csvio import read_events, write_events
from repro.workloads.qnv import QnVConfig, qnv_streams


def _options_from_args(args: argparse.Namespace) -> TranslationOptions:
    return TranslationOptions.from_flags(
        o1=args.o1,
        o2=args.o2,
        iter=args.iter_strategy,
        o3=args.o3,
        multiway=args.multiway,
    )


def _pattern_from_args(args: argparse.Namespace):
    if args.pattern:
        text = args.pattern
    elif args.pattern_file:
        text = Path(args.pattern_file).read_text()
    else:
        raise ReproError("provide --pattern or --pattern-file")
    return parse_pattern(text, name=getattr(args, "name", "cli-pattern"))


def _streams_from_args(args: argparse.Namespace) -> dict[str, list]:
    streams: dict[str, list] = {}
    for spec in args.stream or []:
        if "=" not in spec:
            raise ReproError(f"--stream expects TYPE=path.csv, got {spec!r}")
        event_type, _, path = spec.partition("=")
        streams[event_type] = list(read_events(path))
    if not streams:
        raise ReproError("at least one --stream TYPE=path.csv is required")
    return streams


def _typed_sources(pattern, streams=None) -> dict[str, ListSource]:
    """One source per event type of ``pattern`` — empty unless ``streams``
    has events for it, so explaining and linting need no data."""
    return {
        t: ListSource((streams or {}).get(t, []), name=f"src[{t}]", event_type=t)
        for t in pattern.distinct_event_types()
    }


def _cost_model_from_args(args: argparse.Namespace, registry):
    """The ``--optimize``/``--profile-from`` pair as a cost model; a
    missing or unreadable profile is a usage error, not a traceback."""
    try:
        return resolve_cost_model(args.optimize, registry, args.profile_from)
    except (OSError, ValueError) as exc:
        raise ReproError(str(exc)) from None


def _explain_one(pattern, options, model) -> None:
    print(pattern.render())
    plan = translate(
        pattern, _typed_sources(pattern), options, analyze=False, cost_model=model
    ).plan
    print()
    print(plan.explain())
    if plan.trace is not None:
        print()
        print(plan.trace.render())
    print()
    print(render_sql(plan))


def cmd_explain(args: argparse.Namespace) -> int:
    options = _options_from_args(args)
    # The CLI has no stream data at explain time; the paper's six event
    # types carry rate metadata so the static model stays informative.
    from repro.asp.datamodel import TypeRegistry

    registry = TypeRegistry.paper_default()
    model = _cost_model_from_args(args, registry)
    if getattr(args, "catalog", False):
        from repro.patterns import CATALOG

        for index, name in enumerate(sorted(CATALOG)):
            if index:
                print()
                print("=" * 70)
                print()
            print(f"-- catalog query: {name}")
            _explain_one(CATALOG[name](), options, model)
        return 0
    _explain_one(_pattern_from_args(args), options, model)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    duration = minutes(args.minutes)
    written: dict[str, int] = {}
    qnv = qnv_streams(
        QnVConfig(num_segments=args.segments, duration_ms=duration, seed=args.seed)
    )
    for event_type, events in qnv.items():
        written[event_type] = write_events(out / f"{event_type}.csv", events)
    if args.air_quality:
        aq = aq_streams(
            AirQualityConfig(
                num_sensors=args.segments, duration_ms=duration, seed=args.seed
            )
        )
        for event_type, events in aq.items():
            written[event_type] = write_events(out / f"{event_type}.csv", events)
    for event_type, count in sorted(written.items()):
        print(f"wrote {out / (event_type + '.csv')}: {count} events")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if not args.pattern and not args.pattern_file and not args.stream:
        # Batteries-included demo: a keyed SEQ over generated QnV streams,
        # so `python -m repro run --backend sharded` works out of the box.
        print("no pattern/streams given; running the built-in keyed demo")
        args.pattern = (
            "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES"
        )
        streams = qnv_streams(
            QnVConfig(num_segments=8, duration_ms=minutes(240), seed=42)
        )
        pattern = _pattern_from_args(args)
    else:
        pattern = _pattern_from_args(args)
        streams = _streams_from_args(args)
    options = _options_from_args(args)
    backend_spec = getattr(args, "backend", None) or "serial"
    shards = getattr(args, "shards", 4)
    if backend_spec == "sharded" and options.partition_attribute is None:
        print("note: sharded backend needs a keyed plan; enabling O3 on 'id'")
        options = replace(options, partition_attribute="id")
    engines = ("fasp", "fcep") if args.engine == "both" else (args.engine,)
    results = {}
    for engine in engines:
        if engine == "fasp":
            translate_kwargs = {}
            if args.optimize != "off":
                from repro.asp.datamodel import TypeRegistry

                registry = TypeRegistry.paper_default()
                translate_kwargs = {
                    "registry": registry,
                    "cost_model": _cost_model_from_args(args, registry),
                }

            def fresh_query():
                sources = {
                    t: ListSource(events, name=f"src[{t}]", event_type=t)
                    for t, events in streams.items()
                }
                return translate(pattern, sources, options, **translate_kwargs)

            backend = resolve_backend(
                backend_spec,
                shards=shards,
                key_attribute=options.partition_attribute or "id",
            )
            fault_plan = None
            if getattr(args, "fault_plan", None):
                from repro.asp.runtime import parse_fault_plan

                fault_plan = parse_fault_plan(args.fault_plan)
            query = fresh_query()
            trace = getattr(query.plan, "trace", None)
            if trace is not None:
                fired = ", ".join(trace.fired_rules) or "no rules fired"
                print(f"optimizer[{args.optimize}]: {fired}")
            run = query.execute(
                backend=backend,
                checkpoint_interval=getattr(args, "checkpoint_interval", None),
                fault_plan=fault_plan,
                max_restarts=getattr(args, "max_restarts", 3),
                batch_size=getattr(args, "batch_size", 1),
            )
            matches = query.matches()
            recovery = run.metrics.get("recovery")
            if recovery is not None:
                checkpoints = run.metrics.get("checkpoints") or {}
                print(
                    f"recovery: attempts={recovery.get('attempts')} "
                    f"recovered={recovery.get('recovered')} "
                    f"checkpoints={checkpoints.get('count')} "
                    f"({checkpoints.get('bytes_total', 0):,} bytes)"
                )
            results["fasp"] = (run.throughput_tps, matches)
            print(
                f"[{options.label()}] {run.events_in} events -> "
                f"{len(matches)} matches @ {run.throughput_tps:,.0f} tpl/s "
                f"({backend.name} backend)"
            )
            if getattr(args, "metrics_json", None):
                write_metrics_json(run, args.metrics_json)
                print(f"wrote per-operator metrics report to {args.metrics_json}")
            if backend_spec != "serial":
                reference = fresh_query()
                reference.execute()
                serial_keys = {m.dedup_key() for m in reference.matches()}
                backend_keys = {m.dedup_key() for m in matches}
                agree = serial_keys == backend_keys
                print(f"backend parity ({backend.name} vs serial): {agree}")
                if not agree:
                    return 1
        else:
            from repro.asp.datamodel import merge_events

            try:
                cep = from_sea_pattern(pattern)
            except TranslationError as exc:
                print(f"[FCEP] unsupported: {exc}")
                continue
            merged = merge_events(*streams.values())
            matches = dedup(run_nfa(cep, merged))
            results["fcep"] = (None, matches)
            print(f"[FCEP] {len(merged)} events -> {len(matches)} matches")
    if len(results) == 2:
        fasp_keys = {m.dedup_key() for m in dedup(results["fasp"][1])}
        fcep_keys = {m.dedup_key() for m in results["fcep"][1]}
        agree = fasp_keys == fcep_keys
        print(f"engines agree: {agree}")
        if not agree:
            return 1
    shown = results.get("fasp") or results.get("fcep")
    if args.show > 0 and shown is not None:
        for match in shown[1][: args.show]:
            parts = ", ".join(
                f"{e.event_type}@{e.ts}(id={e.id}, v={e.value:.1f})"
                for e in match.events
            )
            print(f"  match: {parts}")
    return 0


_EXPERIMENTS = {
    "fig3a": "fig3a_baseline",
    "fig3b": "fig3b_selectivity",
    "fig3c": "fig3c_window_size",
    "fig3d": "fig3d_pattern_length",
    "fig3e": "fig3e_iteration_consecutive",
    "fig3f": "fig3f_iteration_threshold",
    "fig4": "fig4_keys",
    "fig6": "fig6_scalability",
}


def cmd_bench(args: argparse.Namespace) -> int:
    """Run one paper experiment and print its table (see benchmarks/ for
    the full asserted suite)."""
    import repro.experiments as experiments
    from repro.experiments import Scale, render_figure, render_speedups

    driver_name = _EXPERIMENTS.get(args.experiment)
    if driver_name is None:
        print(f"error: unknown experiment '{args.experiment}'; "
              f"available: {', '.join(sorted(_EXPERIMENTS))}", file=sys.stderr)
        return 2
    driver = getattr(experiments, driver_name)
    scale = Scale(events=args.events, sensors=args.sensors)
    rows = driver(scale)
    print(render_figure(rows, f"{args.experiment} ({args.events} events)"))
    print()
    print(render_speedups(rows))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Summarize a metrics report written by ``run --metrics-json``."""
    try:
        report = load_report(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_metrics_summary(report))
    return 0


def _lint_one(pattern, options, streams=None, sharded=False, state_budget=None):
    """Translate (without pre-flight) and analyze one pattern; returns
    the report."""
    from repro.analysis import analyze_query

    query = translate(
        pattern, _typed_sources(pattern, streams), options, analyze=False
    )
    return analyze_query(
        query,
        prove_shardable=True if sharded else None,
        state_budget=state_budget,
    )


def _github_escape(text: str) -> str:
    """Escape a message for a GitHub Actions workflow command."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _github_annotation(diag, target: str = "") -> str:
    """One diagnostic as a ``::error``/``::warning`` workflow command, so
    findings surface as inline annotations on the PR."""
    level = "error" if diag.is_error else "warning"
    props = []
    if diag.source:
        file, _, line = diag.source.rpartition(":")
        if file:
            props.append(f"file={_github_escape(file)}")
            if line.isdigit():
                props.append(f"line={line}")
    props.append(f"title={diag.code}")
    at = f" at {diag.where}" if diag.where else ""
    prefix = f"{target}: " if target else ""
    message = _github_escape(f"{prefix}[{diag.code}]{at} {diag.message}")
    return f"::{level} {','.join(props)}::{message}"


def _lint_jobs(args: argparse.Namespace) -> list[tuple]:
    """``(pattern, options)`` per query to lint: the whole catalog under
    its advisor-recommended optimizations, or the command line's pattern."""
    if args.catalog:
        from repro.patterns import CATALOG

        patterns = [CATALOG[name]() for name in sorted(CATALOG)]
        return [(p, recommend_options(p).options) for p in patterns]
    return [(_pattern_from_args(args), _options_from_args(args))]


def cmd_lint(args: argparse.Namespace) -> int:
    # Three lint modes share the output pipeline: plan verification
    # (default), the multi-query sharability proof (--sharing) and the
    # concurrency self-lint over the runtime's own source (--self).
    reports: list = []
    kind = "plan"
    if args.self_lint:
        from repro.analysis import lint_runtime_sources

        kind = "source file set"
        reports.append(lint_runtime_sources(paths=args.self_path or None))
    elif args.sharing:
        from repro.mapping.multiquery import translate_many

        kind = "co-submission"
        jobs = _lint_jobs(args)
        if len(jobs) < 2:
            print(
                "error: --sharing needs at least two queries "
                "(use --catalog)",
                file=sys.stderr,
            )
            return 2
        sources: dict[str, ListSource] = {}
        for pattern, _options in jobs:
            sources.update(_typed_sources(pattern))
        # The proof the compile pipeline would merge scans by.
        reports.append(
            translate_many(
                [pattern for pattern, _options in jobs],
                sources,
                [options for _pattern, options in jobs],
                analyze=False,
            ).sharing
        )
    else:
        streams = _streams_from_args(args) if args.stream else None
        for pattern, options in _lint_jobs(args):
            reports.append(
                _lint_one(
                    pattern,
                    options,
                    streams,
                    sharded=args.sharded,
                    state_budget=args.state_budget,
                )
            )

    errors = sum(1 for r in reports for d in r.diagnostics if d.is_error)
    warnings = sum(1 for r in reports for d in r.diagnostics if not d.is_error)
    failed = errors > 0 or (args.strict and warnings > 0)

    if args.report:
        import json

        payload = {
            "kind": "repro.lint/v1",
            "mode": "self" if args.self_lint else (
                "sharing" if args.sharing else "plan"
            ),
            "errors": errors,
            "warnings": warnings,
            "ok": not failed,
            "reports": [r.as_dict() for r in reports],
        }
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    if args.json:
        import json

        print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True))
        return 1 if failed else 0
    if args.format == "github":
        for report in reports:
            target = getattr(report, "target", "")
            for diag in report.diagnostics:
                print(_github_annotation(diag, target))
    else:
        for report in reports:
            print(report.render())
    print(
        f"linted {len(reports)} {kind}(s): {errors} error(s), "
        f"{warnings} warning(s) -> {'FAIL' if failed else 'OK'}"
    )
    return 1 if failed else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault-injection over the catalog; nonzero exit on any
    exactness mismatch (the CI chaos gate)."""
    from repro.asp.runtime.fault.chaos import run_chaos_suite

    report = run_chaos_suite(
        events=args.events,
        sensors=args.sensors,
        seed=args.seed,
        shards=args.shards,
        checkpoint_interval=args.checkpoint_interval,
        patterns=args.patterns or None,
        batch_size=args.batch_size,
    )
    for query in report["queries"]:
        serial = query["serial"]
        sharded = query["sharded"]
        if sharded.get("skipped"):
            sharded_desc = f"skipped ({sharded['skipped']})"
        else:
            sharded_desc = (
                f"{'ok' if sharded['match'] else 'MISMATCH'} "
                f"(restarts={sharded['restarts']})"
            )
        print(
            f"{query['pattern']}: clean={query['clean_matches']} matches | "
            f"serial crash: {'ok' if serial['match'] else 'MISMATCH'} "
            f"(restarts={serial['restarts']}) | "
            f"sharded crash: {sharded_desc}"
        )
    verdict = "OK" if report["ok"] else "FAIL"
    print(f"chaos suite ({len(report['queries'])} queries): {verdict}")
    if args.report:
        import json

        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote chaos report to {args.report}")
    return 0 if report["ok"] else 1


def cmd_advise(args: argparse.Namespace) -> int:
    pattern = _pattern_from_args(args)
    streams = _streams_from_args(args)
    stats = statistics_from_streams(streams)
    recommendation = recommend_options(
        pattern, stats, partition_attribute=args.o3 or None
    )
    print(recommendation.explain())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the query service until SIGTERM/SIGINT, then drain gracefully.

    The drain checkpoints every live job (terminal round: queued events
    processed, windows flushed, state snapshotted) before the process
    exits. With ``--state-dir`` the whole data plane is durable — job
    manifests, progress, checkpoints and the ingestion WAL — so even a
    kill −9 can be followed by a restart against the same directory that
    resumes every non-terminal job exactly where the log left off.
    """
    import asyncio
    import json
    import signal

    from repro.runtime.service import JobManager, ReproService, ServiceConfig

    config = ServiceConfig(
        queue_limit=args.queue_limit,
        admission=args.admission,
        retry_after_ms=args.retry_after_ms,
        checkpoint_interval=args.checkpoint_interval,
        max_restarts=args.max_restarts,
        batch_size=args.batch_size,
        max_out_of_orderness=args.max_out_of_orderness,
        optimize=args.optimize,
        state_dir=args.state_dir,
        job_backend=args.job_backend,
        job_shards=args.job_shards,
    )
    service = ReproService(
        JobManager(config),
        host=args.host,
        http_port=args.http_port,
        tcp_port=args.tcp_port,
    )

    async def _serve() -> None:
        await service.start()
        print(
            f"repro serve: control http://{service.host}:{service.http_port} | "
            f"ingest tcp {service.host}:{service.tcp_port}",
            flush=True,
        )
        if args.ready_file:
            Path(args.ready_file).write_text(
                json.dumps(
                    {
                        "host": service.host,
                        "http_port": service.http_port,
                        "tcp_port": service.tcp_port,
                        "pid": None,
                    }
                )
            )
        loop = asyncio.get_running_loop()

        def _drain_and_stop() -> None:
            print("repro serve: draining...", flush=True)

            async def _drain() -> None:
                await loop.run_in_executor(None, service.manager.drain)
                service.request_shutdown()

            asyncio.ensure_future(_drain())

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, _drain_and_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await service.serve_until_shutdown()

    asyncio.run(_serve())
    print("repro serve: drained and stopped", flush=True)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CEP-to-ASP mapping (EDBT 2024 reproduction) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pattern_args(p):
        p.add_argument("-p", "--pattern", help="inline SASE+-style pattern text")
        p.add_argument("--pattern-file", help="file containing the pattern text")
        p.add_argument("--o1", action="store_true", help="use interval joins (O1)")
        p.add_argument("--o2", action="store_true", help="aggregate iterations (O2)")
        p.add_argument("--iter", dest="iter_strategy",
                       choices=("join", "aggregate", "exact"),
                       help="iteration mapping: self-join chain, approximate "
                            "O2 count, or the exact Kleene operator")
        p.add_argument("--o3", metavar="ATTR", help="partition by attribute (O3)")
        p.add_argument("--multiway", action="store_true",
                       help="compose flat SEQ/AND with one n-ary window join")

    def add_optimizer_args(p):
        p.add_argument("--optimize", choices=OPTIMIZE_MODES, default="off",
                       help="rule-based plan rewriting: 'static' uses "
                            "registry heuristics, 'profile' feeds a prior "
                            "run's metrics report into the cost model")
        p.add_argument("--profile-from", metavar="METRICS_JSON",
                       help="metrics report (run --metrics-json) backing "
                            "--optimize profile")

    explain = sub.add_parser("explain", help="show the mapped plan and SQL")
    add_pattern_args(explain)
    add_optimizer_args(explain)
    explain.add_argument("--catalog", action="store_true",
                         help="explain every pattern in the built-in catalog")
    explain.set_defaults(func=cmd_explain)

    generate = sub.add_parser("generate", help="write synthetic CSV streams")
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--segments", type=int, default=4)
    generate.add_argument("--minutes", type=int, default=600)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--air-quality", action="store_true",
                          help="also generate PM10/PM2/TEMP/HUM streams")
    generate.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="execute a pattern over CSV streams")
    add_pattern_args(run)
    add_optimizer_args(run)
    run.add_argument("--stream", action="append", metavar="TYPE=PATH",
                     help="CSV stream per event type (repeatable)")
    run.add_argument("--engine", choices=("fasp", "fcep", "both"), default="fasp")
    run.add_argument("--backend", choices=("serial", "sharded"), default="serial",
                     help="execution backend for the FASP engine")
    run.add_argument("--shards", type=int, default=4,
                     help="shard count for --backend sharded")
    run.add_argument("--show", type=int, default=5,
                     help="print up to N matches (default 5)")
    run.add_argument("--metrics-json", metavar="PATH",
                     help="write the per-operator metrics report as JSON")
    run.add_argument("--checkpoint-interval", type=int, metavar="N",
                     help="snapshot operator state every N events")
    run.add_argument("--fault-plan", metavar="PLAN",
                     help="inject faults, e.g. 'crash:at=250;slow:op=join,"
                          "delay=0.001;drop:from=src,to=filter'")
    run.add_argument("--max-restarts", type=int, default=3,
                     help="restarts allowed before the run fails (default 3)")
    run.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE, metavar="N",
                     help="most events per micro-batch, >= 1 (default "
                          f"{DEFAULT_BATCH_SIZE}; 1 = batches of one)")
    run.set_defaults(func=cmd_run)

    metrics = sub.add_parser("metrics",
                             help="summarize a --metrics-json run report")
    metrics.add_argument("report", help="path to a metrics JSON report")
    metrics.add_argument("--json", action="store_true",
                         help="print the raw report instead of the table")
    metrics.set_defaults(func=cmd_metrics)

    advise = sub.add_parser("advise", help="recommend optimizations")
    add_pattern_args(advise)
    advise.add_argument("--stream", action="append", metavar="TYPE=PATH")
    advise.set_defaults(func=cmd_advise)

    lint = sub.add_parser(
        "lint", help="statically verify a pattern's mapped plan (no execution)"
    )
    add_pattern_args(lint)
    lint.add_argument("--catalog", action="store_true",
                      help="lint every pattern in the built-in catalog with "
                           "its advisor-recommended optimizations")
    lint.add_argument("--stream", action="append", metavar="TYPE=PATH",
                      help="optional CSV stream per event type; improves "
                           "schema inference (repeatable)")
    lint.add_argument("--sharded", action="store_true",
                      help="additionally prove O3 partition safety (RA4xx)")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as errors")
    lint.add_argument("--json", action="store_true",
                      help="emit diagnostics as JSON")
    lint.add_argument("--sharing", action="store_true",
                      help="prove multi-query scan-prefix sharability "
                           "(RA81x) instead of per-plan verification")
    lint.add_argument("--self", dest="self_lint", action="store_true",
                      help="concurrency self-lint over the service "
                           "runtime's own source (RA82x)")
    lint.add_argument("--self-path", action="append", metavar="PATH",
                      help="with --self: lint these files/directories "
                           "instead of the shipped runtime (repeatable)")
    lint.add_argument("--state-budget", type=float, default=None,
                      help="flag plans whose proven state bound exceeds "
                           "this many buffered events (RA803)")
    lint.add_argument("--format", choices=("text", "github"), default="text",
                      help="'github' emits ::error/::warning workflow "
                           "commands for inline PR annotations")
    lint.add_argument("--report", metavar="PATH",
                      help="also write a repro.lint/v1 JSON report here")
    lint.set_defaults(func=cmd_lint)

    chaos = sub.add_parser(
        "chaos",
        help="crash-and-recover every catalog query; verify exact output",
    )
    chaos.add_argument("--events", type=int, default=4000,
                       help="events per generated workload (default 4000)")
    chaos.add_argument("--sensors", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=7,
                       help="seed for crash offsets (default 7)")
    chaos.add_argument("--shards", type=int, default=2,
                       help="shard count for the sharded scenarios")
    chaos.add_argument("--checkpoint-interval", type=int, default=100,
                       help="snapshot every N events (default 100)")
    chaos.add_argument("--patterns", nargs="*", metavar="NAME",
                       help="restrict to these catalog patterns")
    chaos.add_argument("--batch-size", type=int, default=1, metavar="N",
                       help="most events per micro-batch of the crashed "
                            "executions, >= 1 (default 1); the clean reference "
                            "runs batches of one, so the byte-identity gate "
                            "covers batch size + recovery")
    chaos.add_argument("--report", metavar="PATH",
                       help="write the structured chaos report as JSON")
    chaos.set_defaults(func=cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived multi-tenant query service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--http-port", type=int, default=8181,
                       help="control + HTTP ingest port (0 = ephemeral)")
    serve.add_argument("--tcp-port", type=int, default=8182,
                       help="NDJSON TCP ingest port (0 = ephemeral)")
    serve.add_argument("--queue-limit", type=int, default=10000,
                       help="bounded ingress queue capacity per job")
    serve.add_argument("--admission", choices=("reject", "block"),
                       default="reject",
                       help="full-queue policy: reject with retry-after, or "
                            "block the producer (TCP backpressure)")
    serve.add_argument("--retry-after-ms", type=int, default=250,
                       help="hint returned with rejected events")
    serve.add_argument("--checkpoint-interval", type=int, default=500,
                       help="snapshot cadence inside rounds (events)")
    serve.add_argument("--state-dir", "--checkpoint-dir", metavar="DIR",
                       dest="state_dir",
                       help="durable state root (ingestion WAL + job "
                            "manifests + per-job checkpoints; default: "
                            "in-memory): a restart against the same DIR "
                            "resumes every non-terminal job")
    serve.add_argument("--job-backend", choices=("auto", "serial", "sharded"),
                       default="auto",
                       help="round execution backend; 'auto' shards exactly "
                            "when the plan passes the partition-safety proof")
    serve.add_argument("--job-shards", type=int, default=2, metavar="N",
                       help="shard count for sharded jobs")
    serve.add_argument("--max-restarts", type=int, default=3,
                       help="per-job restart budget")
    serve.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE, metavar="N",
                       help="most events per micro-batch of processing rounds "
                            f"(default {DEFAULT_BATCH_SIZE}; 1 = batches of one; "
                            "per-job override: submit with \"batch_size\": N)")
    serve.add_argument("--max-out-of-orderness", type=int, default=0,
                       help="allowed event-time disorder of ingestion (ms)")
    serve.add_argument("--optimize", choices=("off", "static"), default="off",
                       help="optimizer mode applied to submitted queries "
                            "(no 'profile': serve has no metrics report)")
    serve.add_argument("--ready-file", metavar="PATH",
                       help="write bound ports as JSON once listening "
                            "(used by CI to wait for boot)")
    serve.set_defaults(func=cmd_serve)

    bench = sub.add_parser("bench", help="run one paper experiment")
    bench.add_argument("experiment", help="fig3a..fig3f, fig4, fig6")
    bench.add_argument("--events", type=int, default=8000)
    bench.add_argument("--sensors", type=int, default=4)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

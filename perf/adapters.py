"""The benchmark's one import surface onto ``repro``.

No other file under ``perf/`` imports ``repro``; the public names this
file depends on are listed in ``perf/README.md``. Engine modes are read
off the ``execute`` signature, so a later change that folds ``fusion`` /
``columnar`` / ``batch_size`` into one path leaves the benchmark running
(every mode then falls back to the default call).
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis import analyze_query  # noqa: E402
from repro.analysis.sharing import prove_sharability  # noqa: E402
from repro.asp import datamodel  # noqa: E402
from repro.asp.operators.sink import CollectSink, DiscardSink  # noqa: E402
from repro.asp.operators.source import ListSource  # noqa: E402
from repro.asp.runtime.fault.chaos import canonical_match_bytes  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    Scale,
    iter_consecutive_pattern,
    nseq_pattern,
    qnv_aq_workload,
    seq2_pattern,
)
from repro.mapping.advisor import recommend_options, statistics_from_streams  # noqa: E402
from repro.mapping.optimizations import TranslationOptions  # noqa: E402
from repro.mapping.optimizer import build_plan, optimize_plan  # noqa: E402
from repro.mapping.plan import WindowStrategy  # noqa: E402
from repro.mapping.translator import TranslatedQuery, translate  # noqa: E402
from repro.patterns import CATALOG, traffic_congestion  # noqa: E402
from repro.runtime.service.events import (  # noqa: E402
    event_to_wire,
    merge_streams_for_wire,
    parse_wire_line,
)
from repro.runtime.service.jobs import JobManager, ServiceConfig  # noqa: E402
from repro.sea.parser import parse_pattern  # noqa: E402

SYNC_LINE = b'{"op": "sync"}\n'


# -- streams -----------------------------------------------------------------


def build_streams(events: int, seed: int) -> dict[str, list]:
    """QnV + air-quality streams with per-type ``ts`` offsets, so no two
    types share a timestamp and the wire order equals the batch
    scan-merge order (``tools/serve_smoke.py::build_streams``)."""
    scale = Scale(events=events, sensors=8, seed=seed)
    streams = {t: list(evs) for t, evs in qnv_aq_workload(scale).items()}
    for offset, evs in enumerate(streams.values()):
        for event in evs:
            event.ts += offset
    return streams


def wire_lines(streams: dict[str, list], source: str) -> tuple[list[bytes], list[tuple]]:
    """The merged stream as NDJSON lines with producer ``source``/``seq``,
    plus each line's ``(type, ts, id)`` identity."""
    lines, idents = [], []
    for seq, event in enumerate(merge_streams_for_wire(streams), start=1):
        lines.append((json.dumps(event_to_wire(event, source, seq)) + "\n").encode())
        idents.append((event.event_type, event.ts, event.id))
    return lines, idents


def heartbeat_line(ts: int, source: str) -> bytes:
    return (json.dumps({"watermark": ts, "source": source}) + "\n").encode()


# -- one-shot batch runs -----------------------------------------------------


def engine_modes() -> dict[str, dict[str, Any]]:
    """``execute`` keyword sets of the per-event reference, the
    ``repro run`` default (batch 256 + fusion) and the columnar mode,
    reduced to the parameters ``execute`` still has."""
    params = inspect.signature(TranslatedQuery.execute).parameters
    wanted = {
        "reference": {},
        "default": {"batch_size": 256, "fusion": True},
        "columnar": {"batch_size": 256, "fusion": True, "columnar": True},
    }
    return {
        mode: {k: v for k, v in kwargs.items() if k in params}
        for mode, kwargs in wanted.items()
    }


def engine_modes_available() -> list[str]:
    """Modes whose ``execute`` call differs from every earlier one."""
    seen: list[dict] = []
    out = []
    for mode, kwargs in engine_modes().items():
        if kwargs not in seen:
            seen.append(kwargs)
            out.append(mode)
    return out


def catalog_cells(streams: dict[str, list]) -> list[tuple[str, Any, Any]]:
    """All catalog queries with the advisor's options for these streams."""
    stats = statistics_from_streams(streams)
    cells = []
    for name in sorted(CATALOG):
        pattern = CATALOG[name]()
        cells.append((name, pattern, recommend_options(pattern, stats).options))
    return cells


def join_cells() -> list[tuple[str, Any, Any]]:
    """Four stateful plans chosen explicitly (join probe, side buffers,
    negation, exact Kleene enumeration)."""
    seq = seq2_pattern(0.3, 15, keyed=True)
    return [
        ("seq-sliding", seq, TranslationOptions()),
        ("seq-interval", seq, TranslationOptions(join_strategy=WindowStrategy.INTERVAL)),
        ("nseq", nseq_pattern(15, 0.1, 0.2), TranslationOptions()),
        (
            "iter-exact",
            iter_consecutive_pattern(3, 15, 0.1),
            TranslationOptions(iteration_strategy="exact"),
        ),
    ]


def run_query(pattern, options, streams, mode_kwargs, tracer, trace=0, collect=False):
    """Translate and run one query over ``streams`` at the harness
    watermark cadence (256 broadcasts per run).

    Returns ``(translate_seconds, RunResult, canonical match bytes or
    None, match count)``.
    """
    types = pattern.distinct_event_types()
    with tracer.span("translator.translate", trace=trace):
        started = time.perf_counter()
        sources = {
            t: ListSource(streams[t], name=f"src[{t}]", event_type=t) for t in types
        }
        query = translate(pattern, sources, options)
        sink = query.attach_sink(CollectSink() if collect else DiscardSink())
        translate_s = time.perf_counter() - started
    span_ms = max(
        (streams[t][-1].ts - streams[t][0].ts for t in types if streams[t]), default=0
    )
    with tracer.span("serial.execute", trace=trace):
        result = query.execute(
            watermark_interval=max(pattern.window.slide, span_ms // 256), **mode_kwargs
        )
    keys = canonical_match_bytes(query.matches()) if collect else None
    return translate_s, result, keys, sink.count


def operator_busy(result) -> dict[str, float]:
    """Busy seconds per operator kind, from the published per-stage times
    and the per-operator tree's ``kind`` annotation."""
    tree = result.metrics.get("operators", {})
    out: dict[str, float] = {}
    for scope, seconds in getattr(result, "stage_seconds", {}).items():
        kind = str(tree.get(scope, {}).get("kind", "other"))
        out[kind] = out.get(kind, 0.0) + seconds
    return out


def operator_values(result, name: str) -> list[int]:
    """One metric of the published per-operator tree, per operator that
    has it (counters and gauges alike)."""
    return [
        int(metrics[name]["value"])
        for metrics in result.metrics.get("operators", {}).values()
        if isinstance(metrics.get(name), dict)
    ]


@contextmanager
def count_to_events() -> Iterator[dict[str, float]]:
    """Count row fallbacks of the columnar path by wrapping the public
    ``ColumnarBatch.to_events`` for the duration of the block."""
    tally = {"calls": 0, "seconds": 0.0}
    batch_class = getattr(datamodel, "ColumnarBatch", None)
    original = getattr(batch_class, "to_events", None)
    if original is None:
        yield tally
        return

    def counted(self):
        started = time.perf_counter()
        try:
            return original(self)
        finally:
            tally["calls"] += 1
            tally["seconds"] += time.perf_counter() - started

    batch_class.to_events = counted
    try:
        yield tally
    finally:
        batch_class.to_events = original


# -- serve -------------------------------------------------------------------

#: The selective keyed job of ``serve-open``.
OPEN_JOB = {
    "name": "open",
    "query": {
        "name": "open",
        "pattern": (
            "PATTERN SEQ(Q q1, V v1) WHERE q1.value > 82 AND v1.value < 25 "
            "AND q1.id = v1.id WITHIN 15 MINUTES SLIDE 1 MINUTE"
        ),
    },
}
OPEN_WINDOW_MS = 15 * 60 * 1000

#: The four catalog jobs of ``serve-sat-durable`` (PM2/TEMP/HUM unrouted).
DURABLE_JOBS = [
    {"name": name, "query": name}
    for name in (
        "traffic-congestion",
        "street-lighting-demand",
        "stalled-traffic",
        "vehicle-pollution-alert",
    )
]


def serve_command(ready_file: Path, state_dir: Path | None, admission: str):
    """argv + environment of one real ``python -m repro serve`` process."""
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--http-port", "0", "--tcp-port", "0",
        "--ready-file", str(ready_file),
        "--admission", admission,
    ]
    if state_dir is not None:
        argv += ["--state-dir", str(state_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return argv, env


def new_manager(state_dir: Path | None = None, admission: str = "reject") -> JobManager:
    """A ``JobManager`` configured like :func:`serve_command`'s server; no
    listeners, and the worker is not started."""
    return JobManager(
        ServiceConfig(
            admission=admission,
            state_dir=str(state_dir) if state_dir is not None else None,
        )
    )


def serve_reference(spec: dict, streams: dict[str, list]) -> bytes:
    """Canonical match bytes of a one-shot per-event batch run of the job's
    query over the same streams."""
    query_spec = spec["query"]
    if isinstance(query_spec, str):
        pattern = CATALOG[query_spec]()
    else:
        pattern = parse_pattern(query_spec["pattern"], name=query_spec["name"])
    sources = {
        t: ListSource(streams[t], name=f"batch[{t}]", event_type=t)
        for t in pattern.distinct_event_types()
    }
    query = translate(pattern, sources, recommend_options(pattern).options)
    query.attach_sink()
    query.execute(watermark_interval=query.plan.window_slide)
    return canonical_match_bytes(query.matches())


# -- submit / compiler -------------------------------------------------------

_INLINE = "PATTERN SEQ(Q a, V b) WHERE a.id = b.id WITHIN 10 MINUTES"


def submit_specs() -> list[dict]:
    """Seven catalog names, one inline PSL with O3, the same under the
    static optimizer, and one 8-tenant shared-scan group."""
    specs: list[dict] = [{"name": name, "query": name} for name in sorted(CATALOG)]
    inline = {"pattern": _INLINE, "options": {"o3": "id"}}
    specs.append({"name": "inline", "query": {**inline, "name": "inline"}})
    specs.append({
        "name": "inline-static",
        "query": {**inline, "name": "inline-static"},
        "optimize": "static",
    })
    specs.append({
        "name": "group",
        "queries": [
            {
                "name": f"congestion-w{w}",
                "pattern": traffic_congestion(window_minutes=w).render(),
            }
            for w in range(8, 16)
        ],
    })
    return specs


def compile_steps(spec: dict, tracer, trace: int) -> None:
    """The public compiler calls a submit of ``spec`` pays, one span each.

    ``translator.translate`` is the whole ``translate(analyze=False)``
    call, which builds (and optimizes) the plan again itself: lowering is
    that span minus the ``optimizer.*`` spans.
    """
    optimize = spec.get("optimize", "off")
    proven = []
    for query_spec in spec.get("queries") or [spec["query"]]:
        if isinstance(query_spec, str):
            query_spec = {"name": query_spec, "catalog": query_spec}
        name = query_spec["name"]
        with tracer.span("parser.parse_pattern", trace=trace):
            if "catalog" in query_spec:
                pattern = CATALOG[query_spec["catalog"]]()
            else:
                pattern = parse_pattern(query_spec["pattern"], name=name)
        if "options" in query_spec:
            options = TranslationOptions(
                partition_attribute=query_spec["options"].get("o3")
            )
        else:
            options = recommend_options(pattern).options
        sources = {
            t: ListSource([], name=f"lint[{t}]", event_type=t)
            for t in pattern.distinct_event_types()
        }
        with tracer.span("optimizer.build_plan", trace=trace):
            plan = build_plan(pattern, options)
        if optimize != "off":
            with tracer.span("optimizer.optimize_plan", trace=trace):
                plan = optimize_plan(plan, options)
        with tracer.span("translator.translate", trace=trace):
            query = translate(pattern, sources, options, analyze=False, optimize=optimize)
        with tracer.span("analysis.analyze_query", trace=trace):
            analyze_query(query)
        proven.append((name, plan, options))
    if len(proven) > 1:
        with tracer.span("sharing.prove_sharability", trace=trace):
            prove_sharability(proven)

"""The two in-process one-shot workloads: no wire, no service.

``batch-catalog`` runs the seven catalog queries (filter- and
emission-dominated); ``batch-join`` runs four stateful plans chosen
explicitly (join probe, side buffers, Kleene enumeration). Each query
runs in the ``repro run`` default engine mode and in columnar mode;
every mode's sorted dedup keys must equal the per-event reference's.
"""

from __future__ import annotations

import resource
import time

from perf import adapters
from perf.engine import engine_layers
from perf.stats import better_quartile, median
from perf.trace import NullTracer, Tracer

#: Source events per second of ``--seconds`` (sized on a 2-core sandbox so
#: one pass over both modes takes about a fifth of the run).
EVENTS_PER_SECOND = {"batch-catalog": 7500, "batch-join": 3000}


def _cells(kind: str, streams):
    return adapters.catalog_cells(streams) if kind == "batch-catalog" else adapters.join_cells()


def _pass(cells, streams, mode_kwargs, tracer, trace_base=0):
    """Every cell once in one mode; returns the per-cell results."""
    out = []
    for index, (name, pattern, options) in enumerate(cells):
        translate_s, result, _keys, matches = adapters.run_query(
            pattern, options, streams, mode_kwargs, tracer, trace=trace_base + index
        )
        out.append((name, translate_s, result, matches))
    return out


def _wall(results) -> float:
    return sum(r.wall_seconds for _n, _t, r, _m in results)


def _tuples_per_s(results) -> float:
    return sum(r.events_in for _n, _t, r, _m in results) / _wall(results)


def run_batch(kind: str, seed: int, seconds: float, trace: bool) -> dict:
    events = int(EVENTS_PER_SECOND[kind] * seconds)
    setups = []
    for _ in range(5):
        started = time.perf_counter()
        streams = adapters.build_streams(events, seed)
        cells = _cells(kind, streams)
        setups.append(time.perf_counter() - started)
    modes = adapters.engine_modes()

    null = NullTracer()
    passes: dict[str, list] = {"default": [], "columnar": []}
    deadline = time.perf_counter() + seconds
    while not passes["default"] or time.perf_counter() < deadline:
        for mode in passes:
            passes[mode].append(_pass(cells, streams, modes[mode], null))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = [r for mode in passes.values() for results in mode for r in results]
    problems = [
        f"{name}: run failed: {result.failure}" for name, _t, result, _m in timed if result.failed
    ]
    # Output check, outside every timed section: each mode's canonical
    # match bytes against the per-event reference mode's.
    verify_started = time.perf_counter()
    comparisons = 0
    for name, pattern, options in cells:
        _t, _r, reference, _count = adapters.run_query(
            pattern, options, streams, modes["reference"], null, collect=True
        )
        for mode in passes:
            _t, result, keys, _count = adapters.run_query(
                pattern, options, streams, modes[mode], null, collect=True
            )
            comparisons += 1
            if result.failed or keys != reference:
                problems.append(f"{name}: {mode} mode differs from the per-event reference")
    verify_s = time.perf_counter() - verify_started

    # Every figure is the better quartile of the passes (see
    # ``stats.better_quartile``). Latency is one query from input to complete
    # result (translate + execute) in the default mode: the median query's
    # and the slowest query's.
    per_query_ms = [
        better_quartile(
            [(results[index][1] + results[index][2].wall_seconds) * 1000.0
             for results in passes["default"]],
            "lower",
        )
        for index in range(len(cells))
    ]
    rates = {mode: [_tuples_per_s(results) for results in passes[mode]] for mode in passes}
    result = {
        "metrics": {
            "setup_s": better_quartile(setups, "lower"),
            "latency_ms": median(per_query_ms),
            "latency_tail_ms": max(per_query_ms),
            "throughput_per_s": better_quartile(rates["default"], "higher"),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": len(timed) + comparisons,
        "failed": len(problems),
        "problems": problems,
        "info": {
            "verify_s": verify_s,
            "latency_samples": len(cells) * len(passes["default"]),
            "events": events,
            "passes": len(passes["default"]),
            "matches": sum(m for _n, _t, _r, m in passes["default"][0]),
            "columnar_tuples_per_s": better_quartile(rates["columnar"], "higher"),
            "tuples_per_s_reps": rates["default"],
            "columnar_tuples_per_s_reps": rates["columnar"],
            "setup_s_reps": setups,
            "per_query_tuples_per_s": {
                name: {
                    mode: median([
                        results[index][2].events_in / results[index][2].wall_seconds
                        for results in passes[mode]
                    ])
                    for mode in passes
                }
                for index, (name, _p, _o) in enumerate(cells)
            },
        },
    }
    if trace:
        result["layers"], result["spans"] = _layers(cells, streams, modes, passes, rates)
    return result


def _layers(cells, streams, modes, passes, rates):
    """Operator numbers from the ``RunResult``s of the default-mode pass
    with the median wall time; one more pass per mode with spans around
    ``translate`` and ``execute`` and the row-fallback counter."""
    tracer = Tracer()
    traced = _wall(_pass(cells, streams, modes["default"], tracer))
    with adapters.count_to_events() as fallbacks:
        traced += _wall(_pass(cells, streams, modes["columnar"], tracer, len(cells)))
    untraced = sum(median([_wall(results) for results in passes[mode]]) for mode in passes)

    by_wall = sorted(passes["default"], key=_wall)
    layers = engine_layers([r for _n, _t, r, _m in by_wall[len(by_wall) // 2]])
    layers.update({
        "serial.tuples_per_s": better_quartile(rates["default"], "higher"),
        "serial.columnar_tuples_per_s": better_quartile(rates["columnar"], "higher"),
        "datamodel.to_events_calls": fallbacks["calls"],
        "datamodel.to_events_s": fallbacks["seconds"],
        "trace.overhead_frac": (traced - untraced) / untraced,
        "trace.engine_self_s": traced,
    })
    return layers, tracer.spans

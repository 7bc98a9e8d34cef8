"""``compile-submit``: in-process ``JobManager.submit`` on a fresh manager
per repetition (no listeners, worker not started) — the one workload whose
timed section is the compiler: parse -> analyze -> rewrite -> lower.
"""

from __future__ import annotations

import resource
import time

from perf import adapters
from perf.stats import better_quartile, median, percentile
from perf.trace import Tracer, durations


def _submit_all(specs, samples: list[float], problems: list[str], tracer=None) -> None:
    """One repetition: every spec once on a fresh manager."""
    manager = adapters.new_manager()
    try:
        for number, spec in enumerate(specs):
            expected = [
                q if isinstance(q, str) else q["name"]
                for q in spec.get("queries") or [spec["query"]]
            ]
            index = tracer.begin("jobs.submit", trace=number) if tracer else -1
            started = time.perf_counter()
            try:
                info = manager.submit(spec)
            except Exception as exc:  # noqa: BLE001 - a submit that raises is a failed operation
                problems.append(f"{spec['name']}: submit raised {type(exc).__name__}: {exc}")
                continue
            finally:
                samples.append((time.perf_counter() - started) * 1000.0)
                if tracer:
                    tracer.end(index)
            if info["state"] != "running" or info["queries"] != expected:
                problems.append(f"{spec['name']}: unexpected job document {info}")
    finally:
        manager.stop()


def run_submit(seed: int, seconds: float, trace: bool) -> dict:
    """``seed`` is unused: the spec list is fixed and no stream is read."""
    problems: list[str] = []
    setups = []
    for _ in range(5):  # set-up = spec list + one unmeasured warm-up pass
        started = time.perf_counter()
        specs = adapters.submit_specs()
        _submit_all(specs, [], problems)
        setups.append(time.perf_counter() - started)

    samples: list[float] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        _submit_all(specs, samples, problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Eight consecutive slices of whole repetitions; every figure is the
    # better quartile of the slices' (see ``stats.better_quartile``).
    reps = len(samples) // len(specs)
    edges = [reps * i // 8 * len(specs) for i in range(9)]
    slices = [samples[a:b] for a, b in zip(edges, edges[1:]) if b > a]
    result = {
        "metrics": {
            "setup_s": better_quartile(setups, "lower"),
            "latency_ms": better_quartile([percentile(x, 50) for x in slices], "lower"),
            "latency_tail_ms": better_quartile([percentile(x, 95) for x in slices], "lower"),
            "throughput_per_s": better_quartile(
                [len(x) / (sum(x) / 1000.0) for x in slices], "higher"
            ),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": len(samples) + 5 * len(specs),
        "failed": len(problems),
        "problems": problems,
        "info": {
            "verify_s": 0.0,
            "latency_samples": len(samples),
            "repetitions": reps,
            "setup_s_reps": setups,
        },
    }
    if trace:
        result["layers"], result["spans"] = _layers(specs, samples)
    return result


def compile_layers(specs, tracer: Tracer, reps: int) -> dict[str, float]:
    """The public compiler calls a submit of each spec pays, one by one:
    ms per submit, averaged over the spec list."""
    for rep in range(reps):
        for number, spec in enumerate(specs):
            adapters.compile_steps(spec, tracer, trace=rep * len(specs) + number)
    submits = reps * len(specs)

    def per_submit(name: str) -> float:
        return sum(durations(tracer.spans, name)) / submits * 1000.0

    build = per_submit("optimizer.build_plan")
    optimize = per_submit("optimizer.optimize_plan")
    return {
        "parser.parse_ms": per_submit("parser.parse_pattern"),
        "optimizer.build_plan_ms": build,
        "optimizer.optimize_plan_ms": optimize,
        "translator.lower_ms": per_submit("translator.translate") - build - optimize,
        "analysis.analyze_query_ms": per_submit("analysis.analyze_query"),
        "sharing.prove_ms": per_submit("sharing.prove_sharability"),
    }


def _layers(specs, untraced: list[float]):
    """The compiler calls alone, then the same submits with a span around
    each; ``jobs.submit_overhead_ms`` is what the calls do not explain."""
    tracer = Tracer()
    reps = 5
    layers = compile_layers(specs, tracer, reps)
    traced: list[float] = []
    for _ in range(reps):
        _submit_all(specs, traced, [], tracer)
    submit = sum(durations(tracer.spans, "jobs.submit")) / len(traced) * 1000.0
    layers["jobs.submit_overhead_ms"] = submit - sum(layers.values())
    layers["trace.overhead_frac"] = (median(traced) - median(untraced)) / median(untraced)
    return layers, tracer.spans

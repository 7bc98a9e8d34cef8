"""Serve capacity: shared-scan tenant group vs independent tenants.

PR 9's tenant groups co-submit queries through ``translate_many`` so the
service runs one merged dataflow instead of one dataflow per tenant —
exactly the plan this bench compiles. Eight tenants (catalog factories,
several as near-duplicate window/threshold variants, the realistic
multi-tenant shape) run twice over the same workload:

``serve+shared``
    one tenant group: a single ``translate_many`` dataflow, one pass
    over the input serves every tenant (the PR 8 sharing proof's
    shared scan pipelines do the saving);
``serve``
    eight independent submissions: one ``translate`` dataflow per
    tenant, each consuming its own copy of the streams it needs.

Capacity is the logical input size divided by total wall time, so the
shared/unshared ratio is the number of independent tenants one shared
group replaces. Both cells come from the same process on the same box —
``tools/check_bench_regression.py`` holds the ratio to a hard
machine-independent floor (and equal match totals) via its
``SIBLING_FLOORS`` table.
"""

from benchmarks.common import bench_scale, record, record_rows
from repro.asp.operators.source import ListSource
from repro.experiments.common import ExperimentRow, qnv_aq_workload
from repro.mapping.multiquery import translate_many
from repro.mapping.translator import translate
from repro.patterns import traffic_congestion
from repro.sea.parser import parse_pattern

TENANTS = 8


def _tenant_patterns():
    """Eight tenants over the catalog; variants differ in window size,
    the shape PR 8's prover groups under one shared scan prefix."""
    factories = [
        (f"congestion-w{w}", traffic_congestion(window_minutes=w))
        for w in (8, 9, 10, 11, 12, 13, 14, 15)
    ]
    # Re-parse under unique tenant names: a group's sinks/metrics are
    # keyed per tenant, and two tenants may submit the same catalog entry.
    return [parse_pattern(p.render(), name=name) for name, p in factories]


def _sources(streams, types):
    return {
        t: ListSource(list(streams[t]), name=f"src[{t}]", event_type=t)
        for t in sorted(types)
    }


def _keys(matches):
    return sorted(repr(m.dedup_key()) for m in matches)


def test_serve_tenant_group(benchmark):
    scale = bench_scale(sensors=4)
    streams = qnv_aq_workload(scale)
    patterns = _tenant_patterns()
    needed = {t for p in patterns for t in p.distinct_event_types()}
    total_events = sum(len(streams[t]) for t in needed)

    def run_shared():
        multi = translate_many(patterns, _sources(streams, needed))
        result = multi.execute()
        return multi, result

    multi, shared_result = benchmark.pedantic(run_shared, rounds=1, iterations=1)

    separate_wall = 0.0
    separate_matches: list[list] = []
    for pattern in patterns:
        query = translate(pattern, _sources(streams, pattern.distinct_event_types()))
        query.attach_sink()
        separate_wall += query.execute().wall_seconds
        separate_matches.append(query.matches())

    # Byte-identity per tenant: the merged dataflow serves every tenant
    # exactly what a dedicated dataflow would.
    for index, pattern in enumerate(patterns):
        assert _keys(multi.matches_of(index)) == _keys(separate_matches[index]), (
            pattern.name
        )

    total_matches = sum(len(ms) for ms in separate_matches)
    rows = [
        ExperimentRow(
            experiment="serve",
            pattern="tenant-group",
            approach="serve+shared",
            parameter=f"tenants={TENANTS}",
            throughput_tps=total_events / shared_result.wall_seconds,
            matches=total_matches,
            events_in=total_events,
            wall_seconds=shared_result.wall_seconds,
            peak_state_bytes=shared_result.peak_state_bytes,
        ),
        ExperimentRow(
            experiment="serve",
            pattern="tenant-group",
            approach="serve",
            parameter=f"tenants={TENANTS}",
            throughput_tps=total_events / separate_wall,
            matches=total_matches,
            events_in=total_events,
            wall_seconds=separate_wall,
            peak_state_bytes=shared_result.peak_state_bytes,
        ),
    ]

    ratio = separate_wall / shared_result.wall_seconds
    lines = [f"Serve capacity: one shared tenant group vs {TENANTS} independent tenants"]
    lines.append(f"  shared group (one pass):     {shared_result.wall_seconds:.3f} s wall")
    lines.append(f"  {TENANTS} independent dataflows:    {separate_wall:.3f} s wall")
    lines.append(f"  shared scan pipelines:       {multi.num_shared_scans}")
    lines.append(f"  capacity ratio:              {ratio:.2f}x")
    record("serve", "\n".join(lines))
    record_rows("serve", rows)

    # The hard 1.5x floor lives in tools/check_bench_regression.py; here
    # only sanity-check that sharing is not a loss.
    assert multi.num_shared_scans >= 1
    assert shared_result.wall_seconds < separate_wall

"""Figure 6 — measured scale-out over 1/2/4 shards (128 keys).

The sharded backend executes each keyed plan as per-shard subgraphs and
reports throughput from the measured makespan (slowest shard). Paper
expectation: both approaches scale out (FCEP relatively the most, from
its low baseline), but FCEP never reaches the mapped queries' absolute
throughput (~60 % average gap).
"""

from benchmarks.common import record_rows, bench_scale, record
from repro.experiments import render_bars, fig6_scalability, render_figure, render_speedups

SHARDS = (1, 2, 4)


def test_fig6_scalability(benchmark):
    scale = bench_scale()
    rows = benchmark.pedantic(
        lambda: fig6_scalability(scale, shard_counts=SHARDS),
        rounds=1, iterations=1,
    )
    report = render_figure(rows, "Figure 6: measured scale-out over shards (128 keys)")
    report += "\n\n" + render_speedups(rows)
    report += "\n\n" + render_bars(rows, "throughput bars")
    record("fig6", report)
    record_rows("fig6", rows)

    def row(pattern, approach, shards):
        return next(
            r for r in rows
            if r.pattern == pattern and r.approach == approach
            and r.parameter == f"shards={shards}"
        )

    def busiest(pattern, approach, shards):
        """The work of the cell's busiest shard: what bounds its makespan."""
        return max(row(pattern, approach, shards).extras["shard_work_units"])

    def work_per_event(pattern, approach, shards):
        cell = row(pattern, approach, shards)
        return cell.work_units / cell.events_in

    # Key partitioning is exact: the union of shard-local match sets is
    # the global set, so the count must not depend on the shard count.
    for pattern in ("SEQ7", "ITER4"):
        counts = {
            r.matches for r in rows
            if r.pattern == pattern and r.approach == "FASP-O3"
        }
        assert len(counts) == 1, f"{pattern} match count varies across shards"

    # Scale-out helps FCEP — the paper's emphasis: the resource-starved
    # monolith gains the most from additional workers (up to 6x there) —
    # and the mapped queries: at four shards the busiest shard carries at
    # most half of the one-shard run's work.
    for approach in ("FCEP", "FASP-O3", "FASP-O1+O3"):
        assert busiest("SEQ7", approach, 4) <= 0.5 * busiest("SEQ7", approach, 1), approach
    # And FCEP never catches the best mapped variant (paper: ~60 % gap).
    best_fasp = min(
        work_per_event("SEQ7", a, 4) for a in ("FASP-O3", "FASP-O1+O3")
    )
    assert best_fasp < work_per_event("SEQ7", "FCEP", 4)

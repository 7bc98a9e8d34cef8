"""Figure 3d — impact of the pattern length: nested SEQ(n), n = 2..6.

Paper expectation: FCEP loses throughput with every added source (the
forced union feeds the single NFA); the decomposed mapping stays stable
(13x gap beyond length 4 on the paper's testbed).
"""

from benchmarks.common import record_rows, assert_fasp_not_dominated, bench_scale, record
from repro.experiments import render_bars, fig3d_pattern_length, render_figure, render_speedups

LENGTHS = (2, 3, 4, 5, 6)


def test_fig3d_pattern_length(benchmark):
    rows = benchmark.pedantic(
        lambda: fig3d_pattern_length(bench_scale(sensors=4), LENGTHS),
        rounds=1, iterations=1,
    )
    report = render_figure(rows, "Figure 3d: nested sequence length SEQ(n)")
    report += "\n\n" + render_speedups(rows)
    report += "\n\n" + render_bars(rows, "throughput bars")
    record("fig3d", report)
    record_rows("fig3d", rows)
    assert_fasp_not_dominated(rows)

    def work_per_event(approach, n):
        row = next(r for r in rows if r.approach == approach and r.parameter == f"n={n}")
        return row.work_units / row.events_in

    # FCEP's forced union feeds every event to the one NFA, whose work per
    # event grows with the pattern length; the decomposed plan's grows less.
    fcep_growth = work_per_event("FCEP", 6) / work_per_event("FCEP", 2)
    fasp_growth = work_per_event("FASP", 6) / work_per_event("FASP", 2)
    assert fcep_growth >= 1.5
    assert fasp_growth < fcep_growth

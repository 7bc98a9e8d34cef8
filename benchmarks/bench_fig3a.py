"""Figure 3a — elementary operator baseline (SEQ1, ITER3_1, NSEQ1).

Paper expectation: FASP outperforms FCEP for all three patterns (avg
+28 % for SEQ1/ITER3, up to 20x for NSEQ1); FASP-O2 is the fastest
approach for the iteration (checked as the least work per event).
"""

from benchmarks.common import record_rows, assert_fasp_not_dominated, bench_scale, record
from repro.experiments import render_bars, fig3a_baseline, render_figure, render_speedups


def test_fig3a_baseline(benchmark):
    rows = benchmark.pedantic(
        lambda: fig3a_baseline(bench_scale()), rounds=1, iterations=1
    )
    report = render_figure(rows, "Figure 3a: elementary operator baseline")
    report += "\n\n" + render_speedups(rows)
    report += "\n\n" + render_bars(rows, "throughput bars")
    record("fig3a", report)
    record_rows("fig3a", rows)
    assert_fasp_not_dominated(rows)
    # O2 is the cheapest approach for the iteration (paper Section 5.2.1),
    # read on the deterministic work counter, not the wall clock.
    iter_rows = [r for r in rows if r.pattern == "ITER3_1"]
    cheapest = min(iter_rows, key=lambda r: r.work_units / r.events_in)
    assert cheapest.approach == "FASP-O2"

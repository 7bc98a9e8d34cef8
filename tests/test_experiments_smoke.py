"""Smoke tests for the experiment drivers at tiny scale.

Full-scale runs live in benchmarks/; these assert the drivers execute,
produce the expected row structure, and preserve the headline orderings
where they are stable even at tiny scale (match-count agreement between
approaches, FCEP memory failure vs FASP survival).
"""


from repro.experiments import (
    Scale,
    fig3a_baseline,
    fig3b_selectivity,
    fig3c_window_size,
    fig3d_pattern_length,
    fig3e_iteration_consecutive,
    fig3f_iteration_threshold,
    fig4_keys,
    fig4_memory_failure,
    fig5_resources,
    fig6_scalability,
    render_figure,
    render_speedups,
    shape_checks,
)
from repro.experiments.report import relative_speedups

TINY = Scale(events=3_000, sensors=2, seed=7)


def by_cell(rows):
    cells = {}
    for r in rows:
        cells.setdefault((r.pattern, r.parameter), []).append(r)
    return cells


class TestFig3Drivers:
    def test_fig3a_structure(self):
        rows = fig3a_baseline(TINY)
        patterns = {r.pattern for r in rows}
        assert patterns == {"SEQ1", "ITER3_1", "NSEQ1"}
        approaches = {r.approach for r in rows}
        assert {"FCEP", "FASP", "FASP-O1", "FASP-O2"} <= approaches
        assert all(not r.failed for r in rows)

    def test_fig3a_match_agreement_per_cell(self):
        rows = fig3a_baseline(TINY)
        for cell, cell_rows in by_cell(rows).items():
            counts = {r.matches for r in cell_rows if r.approach != "FASP-O2"}
            assert len(counts) == 1, f"{cell}: {counts}"

    def test_fig3b_selectivity_sweep(self):
        rows = fig3b_selectivity(TINY, selectivities_pct=(0.1, 10.0))
        assert len({r.parameter for r in rows}) == 2
        # FCEP degrades as selectivity rises because the NFA holds more
        # partial matches: its peak state grows (deterministic counter,
        # not wall-clock throughput).
        fcep = [r for r in rows if r.approach == "FCEP"]
        assert [r.peak_state_bytes for r in fcep] == [448, 2016]

    def test_fig3c_window_sweep(self):
        rows = fig3c_window_size(TINY, window_minutes=(10, 40))
        assert {r.parameter for r in rows} == {"W=10", "W=40"}
        for cell, cell_rows in by_cell(rows).items():
            counts = {r.matches for r in cell_rows}
            assert len(counts) == 1

    def test_fig3d_lengths(self):
        rows = fig3d_pattern_length(TINY, lengths=(2, 3))
        assert {r.pattern for r in rows} == {"SEQ(2)", "SEQ(3)"}

    def test_fig3e_consecutive(self):
        rows = fig3e_iteration_consecutive(TINY, lengths=(2, 3))
        assert {r.pattern for r in rows} == {"ITER2_2", "ITER3_2"}

    def test_fig3f_threshold(self):
        rows = fig3f_iteration_threshold(TINY, lengths=(2, 3))
        exact = [r for r in rows if r.approach in ("FCEP", "FASP", "FASP-O1")]
        for cell, cell_rows in by_cell(exact).items():
            counts = {r.matches for r in cell_rows}
            assert len(counts) == 1


class TestFig4Drivers:
    def test_fig4_keys_structure(self):
        rows = fig4_keys(TINY, key_counts=(4, 8), slots=4)
        assert {r.pattern for r in rows} == {"SEQ7", "ITER4"}
        seq7 = [r for r in rows if r.pattern == "SEQ7"]
        for cell, cell_rows in by_cell(seq7).items():
            counts = {r.matches for r in cell_rows}
            assert len(counts) == 1, f"{cell}: {counts}"

    def test_fig4_memory_failure_shape(self):
        rows = fig4_memory_failure(TINY)
        fcep = next(r for r in rows if r.approach == "FCEP")
        fasp = next(r for r in rows if r.approach != "FCEP")
        assert fcep.failed, "NFA partial-match state must exhaust the budget"
        assert not fasp.failed, "the O2 aggregation must stay within budget"
        assert fasp.peak_state_bytes < fcep.peak_state_bytes


class TestFig5Driver:
    def test_traces_structure(self):
        traces = fig5_resources(TINY, key_counts=(4,), sample_every=200)
        assert {t.pattern for t in traces} == {"SEQ7", "ITER4"}
        for trace in traces:
            assert trace.samples, trace.approach
            assert trace.peak_memory() >= 0
            memory = trace.memory_series()
            assert all(b >= 0 for _t, b in memory)
            cpu = trace.cpu_series()
            assert all(0 <= u <= 100 for _t, u in cpu)


class TestFig6Driver:
    def test_scaling_structure(self):
        rows = fig6_scalability(TINY, num_keys=8, shard_counts=(1, 2))
        shards = {r.parameter for r in rows}
        assert shards == {"shards=1", "shards=2"}
        for r in rows:
            assert r.extras.get("shards") in (1, 2)


class TestReporting:
    def test_render_figure_contains_all_cells(self):
        rows = fig3b_selectivity(TINY, selectivities_pct=(1.0,))
        text = render_figure(rows, "t")
        assert "SEQ1" in text
        assert "FCEP" in text and "FASP" in text

    def test_speedups_relative_to_fcep(self):
        rows = fig3b_selectivity(TINY, selectivities_pct=(1.0,))
        sp = relative_speedups(rows)
        assert sp and all(factor > 0 for *_cell, factor in sp)
        assert "speedups vs FCEP" in render_speedups(rows)

    def test_shape_checks_pass_at_tiny_scale(self):
        rows = fig3b_selectivity(TINY, selectivities_pct=(3.0,))
        checks = shape_checks(rows)
        assert checks and all(checks.values())

"""Experiment drivers — one per paper table/figure (see DESIGN.md)."""

from repro.experiments.common import (
    ExperimentRow,
    Scale,
    iter_consecutive_pattern,
    iter_threshold_pattern,
    nseq_pattern,
    qnv_aq_workload,
    qnv_workload,
    seq2_pattern,
    seq_n_pattern,
)
from repro.experiments.batched import batched_speedup
from repro.experiments.optimizer import optimizer_speedup
from repro.experiments.fig3 import (
    fig3a_baseline,
    fig3b_selectivity,
    fig3c_window_size,
    fig3d_pattern_length,
    fig3e_iteration_consecutive,
    fig3f_iteration_threshold,
)
from repro.experiments.fig4 import fig4_keys, fig4_memory_failure, iter4_pattern, seq7_pattern
from repro.experiments.fig5 import ResourceTrace, fig5_resources
from repro.experiments.latency import LatencyRow, latency_sweep, render_latency
from repro.experiments.fig6 import fig6_scalability
from repro.experiments.report import (
    render_bars,
    render_figure,
    render_speedups,
    relative_speedups,
    shape_checks,
)
from repro.experiments.tables import render_table, table1_rows, table2_rows

__all__ = [
    "ExperimentRow", "ResourceTrace", "Scale", "batched_speedup",
    "fig3a_baseline",
    "fig3b_selectivity", "fig3c_window_size", "fig3d_pattern_length",
    "fig3e_iteration_consecutive", "fig3f_iteration_threshold", "fig4_keys",
    "fig4_memory_failure", "fig5_resources", "fig6_scalability", "LatencyRow", "latency_sweep", "render_latency",
    "iter4_pattern", "iter_consecutive_pattern", "iter_threshold_pattern",
    "nseq_pattern", "optimizer_speedup", "qnv_aq_workload", "qnv_workload",
    "relative_speedups",
    "render_bars", "render_figure", "render_speedups", "render_table", "seq2_pattern",
    "seq7_pattern", "seq_n_pattern", "shape_checks", "table1_rows",
    "table2_rows",
]

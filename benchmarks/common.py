"""Shared benchmark scaffolding.

Every figure benchmark regenerates its paper table/series, prints it, and
persists it under ``benchmarks/results/`` so a ``pytest benchmarks/
--benchmark-only`` run doubles as the reproduction record consumed by
EXPERIMENTS.md.

Scale is controlled with ``REPRO_BENCH_EVENTS`` (approximate events per
run; default 20000 keeps a full figure under a minute while preserving
the paper's shapes — raise it for longer, smoother runs).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.common import ExperimentRow, Scale

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable cross-experiment summary, rewritten incrementally by
#: :func:`record_rows`. CI's bench-smoke job uploads it as an artifact
#: and diffs it against the committed ``benchmarks/baseline.json`` via
#: ``tools/check_bench_regression.py``.
SUMMARY_PATH = RESULTS_DIR / "summary.json"


def bench_scale(sensors: int = 4) -> Scale:
    events = int(os.environ.get("REPRO_BENCH_EVENTS", "20000"))
    return Scale(events=events, sensors=sensors, seed=42)


def record(name: str, text: str) -> None:
    """Print the paper-style table and persist it for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def assert_fasp_not_dominated(rows: list[ExperimentRow], tolerance: float = 0.8) -> None:
    """The paper's headline shape: in every cell the best FASP variant
    reaches at least ``tolerance`` of FCEP's throughput (usually far
    more). Failed FCEP runs count as FASP wins. The tolerance absorbs
    the timing noise of a measured makespan (slowest shard) in cells that
    spread few events over many shards."""
    cells: dict[tuple, list[ExperimentRow]] = {}
    for row in rows:
        cells.setdefault((row.pattern, row.parameter), []).append(row)
    losing = []
    for cell, cell_rows in sorted(cells.items()):
        fcep = next((r for r in cell_rows if r.approach == "FCEP"), None)
        fasp = [r for r in cell_rows if r.approach != "FCEP" and not r.failed]
        if fcep is None or not fasp:
            continue
        best = max(r.throughput_tps for r in fasp)
        if not (fcep.failed or best >= fcep.throughput_tps * tolerance):
            losing.append(f"{cell[0]}/{cell[1]}")
    assert not losing, f"FASP dominated by FCEP in cells: {losing}"


def summary_key(row: ExperimentRow) -> str:
    """Stable identifier of one figure cell: pattern|approach|parameter."""
    return f"{row.pattern}|{row.approach}|{row.parameter}"


def update_summary(name: str, rows: list[ExperimentRow]) -> dict:
    """Fold one experiment's rows into ``benchmarks/results/summary.json``.

    The summary keeps one throughput number per figure cell (plus match
    counts for sanity), so a CI run of any benchmark subset produces a
    diffable document covering exactly what it ran.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    if SUMMARY_PATH.exists():
        summary = json.loads(SUMMARY_PATH.read_text())
    else:
        summary = {"schema": "repro.bench-summary/v1", "experiments": {}}
    summary["experiments"][name] = {
        "events": int(os.environ.get("REPRO_BENCH_EVENTS", "20000")),
        "cells": {
            summary_key(row): {
                "throughput_tps": round(row.throughput_tps, 1),
                "matches": row.matches,
                "events_in": row.events_in,
                "failed": row.failed,
            }
            for row in rows
        },
    }
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def record_rows(name: str, rows: list[ExperimentRow]) -> None:
    """Persist raw experiment rows as CSV (plotting) and fold them into
    the machine-readable summary (CI regression gate)."""
    import csv

    RESULTS_DIR.mkdir(exist_ok=True)
    with (RESULTS_DIR / f"{name}.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["experiment", "pattern", "approach", "parameter",
             "throughput_tps", "matches", "events_in", "wall_seconds",
             "peak_state_bytes", "failed"]
        )
        for row in rows:
            writer.writerow(
                [row.experiment, row.pattern, row.approach, row.parameter,
                 f"{row.throughput_tps:.1f}", row.matches, row.events_in,
                 f"{row.wall_seconds:.4f}", row.peak_state_bytes, row.failed]
            )
    update_summary(name, rows)

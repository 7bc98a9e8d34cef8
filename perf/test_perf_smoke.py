"""Tier-1 smoke of the performance ledger: all five workloads at toy
scale, traced. Asserts structure only — never a timing."""

import json
from pathlib import Path

import pytest

from perf import run
from perf.trace import parents_resolve

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric(workload, tmp_path):
    spec = run.contract()
    before = sorted(p.name for p in (ROOT / "perf").iterdir())
    record = run.run_workload(workload, seed=7, seconds=0.5, trace=True, out=tmp_path)

    assert record["correct"], record["problems"]
    assert record["failed_frac"] == 0
    assert record["claim"] is None
    for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
        for metric in spec[section]:
            reported = record[key][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
    assert all(record["metrics"][m["name"]]["value"] > 0 for m in spec["end_to_end"])

    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    assert trace["spans"] and parents_resolve(trace["spans"])
    # Work files are gone and nothing was written next to the sources.
    assert not list(tmp_path.glob("work-*"))
    assert sorted(p.name for p in (ROOT / "perf").iterdir()) == before

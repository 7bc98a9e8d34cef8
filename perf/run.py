"""Command line of the performance ledger.

One workload (what the driver calls)::

    python3 perf/run.py --workload serve-open --seed 1 --seconds 8 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` all five run, untraced then traced. ``--record
FILE`` appends each run's full record as a JSON line; ``--compare A [B]``
applies the ``BENCHMARK.json`` bounds to such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as a script: make ``import perf`` work
    sys.path.insert(0, str(ROOT))

from perf.stats import median, spread  # noqa: E402
from perf.trace import write_trace  # noqa: E402

WORKLOADS = ("serve-open", "serve-sat-durable", "batch-catalog", "batch-join", "compile-submit")


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_1min": os.getloadavg()[0],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Run one workload; returns its full record (see ``perf/README.md``)."""
    from perf import adapters, batch, serve, submit

    machine = fingerprint()
    work = out / f"work-{os.getpid()}-{name}"
    failed_run = True
    try:
        if name == "serve-open":
            result = serve.run_open(seed, seconds, trace, work)
        elif name == "serve-sat-durable":
            result = serve.run_durable(seed, seconds, trace, work)
        elif name == "compile-submit":
            result = submit.run_submit(seed, seconds, trace)
        else:
            result = batch.run_batch(name, seed, seconds, trace)
        failed_run = result["failed"] > 0
    finally:
        if failed_run:  # keep what the servers said
            for index, log in enumerate(sorted(work.glob("**/server.log"))):
                shutil.copy(log, out / f"failed-{name}-seed{seed}-{index}.log")
        shutil.rmtree(work, ignore_errors=True)

    spec = contract()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "claim": None,
        "fingerprint": machine,
        "engine_modes_available": adapters.engine_modes_available(),
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        },
        "info": result["info"],
    }
    if trace:
        # A layer the workload does not exercise reports 0.
        record["layers"] = {
            m["name"]: {"value": result["layers"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        unknown = sorted(set(result["layers"]) - {m["name"] for m in spec["per_layer"]})
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        write_trace(out / f"trace-{name}.json", name, result["spans"])
    return record


def print_record(record: dict) -> None:
    trace = " traced" if record["trace"] else ""
    print(f"== {record['workload']} seed={record['seed']} seconds={record['seconds']}{trace}")
    for section in ("metrics", "layers"):
        for name, metric in record.get(section, {}).items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {record['failed_frac']:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for name, value in record["info"].items():
        if isinstance(value, (int, float, bool)):
            print(f"  {name:34s} {value:>16.6g}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")


def load_records(path: str) -> dict:
    """``{workload: {metric: [values]}}`` of the untraced records in a
    ``--record`` file."""
    values: dict = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"]:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values


def compare(path_a: str, path_b: str | None) -> int:
    """With one file: each metric's run-to-run spread against its bound.
    With two: ``ok`` / ``worse`` / ``unresolved`` per (metric, workload),
    unresolved when either side's spread exceeds the bound."""
    bounds = {m["name"]: m for m in contract()["end_to_end"]}
    side_a = load_records(path_a)
    side_b = load_records(path_b) if path_b else None
    worse = 0
    for workload in WORKLOADS:
        for name, spec in bounds.items():
            a = side_a.get(workload, {}).get(name)
            if not a:
                continue
            row = f"{workload:18s} {name:18s} median {median(a):12.5g} spread {spread(a):6.3f}"
            if side_b is None:
                verdict = "steady" if spread(a) <= spec["bound"] / 3 else "noisy"
                print(f"{row} bound {spec['bound']:.2f} n={len(a)} {verdict}")
                continue
            b = side_b.get(workload, {}).get(name)
            if not b:
                continue
            change = (median(b) - median(a)) / median(a)
            if spec["better"] == "higher":
                change = -change
            if max(spread(a), spread(b)) > spec["bound"]:
                verdict = "unresolved"
            elif change > spec["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{row} -> {median(b):12.5g} spread {spread(b):6.3f} "
                  f"worse by {change:+.3f} of bound {spec['bound']:.2f} {verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / "out",
                        help="directory for traces, logs of failed runs and work files")
    parser.add_argument("--record", metavar="FILE", help="append each run's record as a JSON line")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="one --record file: spreads; two: ok / worse / unresolved")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1] if len(args.compare) > 1 else None)

    args.out.mkdir(parents=True, exist_ok=True)
    runs = (
        [(args.workload, bool(args.trace))]
        if args.workload
        else [(name, traced) for traced in (False, True) for name in WORKLOADS]
    )
    correct = True
    for name, traced in runs:
        record = run_workload(name, args.seed, args.seconds, traced, args.out)
        correct = correct and record["correct"]
        print_record(record)
        if args.record:
            with open(args.record, "a") as handle:
                handle.write(json.dumps(record) + "\n")
    if args.workload:
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["layers" if args.trace else "metrics"],
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""What a small serve round costs, and what it does besides its events.

Drives one in-process serve job — the open-loop query of the benchmark,
a keyed ``SEQ(Q, V)`` window join — through ``JobManager.run_round(job,
cut=False)``, the call the server's worker makes, with a round every 2,
20 and 200 events. Per stride it prints the wall-clock µs per round and
two counts per non-terminal round after the first (which builds the
lane's job):

* ``renders`` — calls of ``SerialJob.operator_tree``: a round renders
  the per-operator metric tree only when it ends the stream or fails,
  and a read renders it on demand;
* ``source_nodes`` — calls of ``Dataflow.source_nodes()``: a job lists
  its flow's sources once, when it is built.

The counts are deterministic and ``--check`` exits 1 when either is not
zero. The µs figures are reported, never gated: they depend on the host.

Usage::

    PYTHONPATH=src python tools/round_cost.py --events 4000
    PYTHONPATH=src python tools/round_cost.py --check --events 400
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.asp.graph import Dataflow  # noqa: E402
from repro.asp.runtime.backends.serial import SerialJob  # noqa: E402
from repro.experiments.common import Scale, qnv_aq_workload  # noqa: E402
from repro.runtime.service import JobManager, ServiceConfig  # noqa: E402

REQUEST = {
    "name": "open",
    "query": {
        "name": "open",
        "pattern": (
            "PATTERN SEQ(Q q1, V v1) WHERE q1.value > 82 AND v1.value < 25 "
            "AND q1.id = v1.id WITHIN 15 MINUTES SLIDE 1 MINUTE"
        ),
    },
}
STRIDES = (2, 20, 200)


def open_events(events: int, seed: int) -> list:
    """The first ``events`` Q and V events of the workload, in ts order."""
    streams = qnv_aq_workload(Scale(events=2 * events, sensors=8, seed=seed))
    merged = sorted((e for t in ("Q", "V") for e in streams[t]), key=lambda e: e.ts)
    return merged[:events]


@contextmanager
def counting(counts: dict[str, int]) -> Iterator[None]:
    """Count tree renders and source-node listings inside the block."""
    patched = {
        "renders": (SerialJob, "operator_tree"),
        "source_nodes": (Dataflow, "source_nodes"),
    }
    originals = {name: getattr(owner, attr) for name, (owner, attr) in patched.items()}

    def wrap(name):
        original = originals[name]

        def counted(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)

        return counted

    for name, (owner, attr) in patched.items():
        setattr(owner, attr, wrap(name))
    try:
        yield
    finally:
        for name, (owner, attr) in patched.items():
            setattr(owner, attr, originals[name])


def measure(events: list, stride: int) -> dict:
    """Non-terminal rounds of ``stride`` events each over ``events``."""
    manager = JobManager(ServiceConfig())
    job = manager.jobs[manager.submit(REQUEST)["id"]]
    chunks = [events[start:start + stride] for start in range(0, len(events), stride)]
    counts = {"renders": 0, "source_nodes": 0}
    busy = 0.0
    for index, chunk in enumerate(chunks):
        for event in chunk:
            manager.ingest_event(event)
        if index == 0:
            # The first round builds the lane's job; the others continue it.
            manager.run_round(job, cut=False)
            continue
        with counting(counts):
            started = time.perf_counter()
            manager.run_round(job, cut=False)
            busy += time.perf_counter() - started
    rounds = job.rounds - 1
    manager.drain()
    return {
        "stride": stride,
        "rounds": rounds,
        "us_per_round": busy / rounds * 1e6,
        **{name: count / rounds for name, count in counts.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless a round renders no tree and lists no sources")
    args = parser.parse_args(argv)
    events = open_events(args.events, args.seed)
    print(f"{len(events)} events, run_round(job, cut=False)")
    print(f"{'stride':>6} {'rounds':>6} {'us/round':>9} {'renders':>8} {'source_nodes':>12}")
    failed = False
    for stride in STRIDES:
        if len(events) < 2 * stride:
            print(f"{stride:>6} skipped: fewer than two rounds of events")
            continue
        row = measure(events, stride)
        print(
            f"{row['stride']:>6} {row['rounds']:>6} {row['us_per_round']:>9.1f} "
            f"{row['renders']:>8.2f} {row['source_nodes']:>12.2f}"
        )
        failed |= row["renders"] > 0 or row["source_nodes"] > 0
    if args.check and failed:
        print("FAIL: a non-terminal round rendered the operator tree or listed sources")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

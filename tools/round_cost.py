#!/usr/bin/env python
"""What a small serve round costs, and what it does besides its events.

Drives two in-process serve jobs of the open-loop query of the
benchmark, a keyed ``SEQ(Q, V)`` window join — one serial, one sharded
(two shards, O3 on ``id``) — through ``JobManager.run_round(job,
cut=False)``, the call the server's worker makes, with a round every 2,
20 and 200 events. Per job and stride it prints the wall-clock µs per
round (mean, and the mean of the first and of the last tenth of the
rounds) and four counts per non-terminal round after the first (which
builds the lanes' jobs and, for the sharded job, the split):

* ``renders`` — calls of ``SerialJob.operator_tree``: a round renders
  the per-operator metric tree only when it ends the stream or fails,
  and a read renders it on demand;
* ``source_nodes`` — calls of ``Dataflow.source_nodes()``: a serial job
  lists its flow's sources once, when its lane first runs it; a sharded
  round lists the parent flow's once, to route the new events;
* ``clones`` — calls of ``clone_dataflow``: a shard flow is cloned once
  per split, and a job splits once per process;
* ``restores`` — calls of ``restore_job_state``: every lane continues its
  live job, so only a crash or a new process restores a checkpoint.

The counts are deterministic and ``--check`` exits 1 when any of
``renders``, ``clones`` and ``restores`` is not zero, or ``source_nodes``
is not zero for the serial job. The µs figures are reported, never
gated: they depend on the host.

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

from repro.asp import graph  # noqa: E402
from repro.asp.runtime.backends.serial import SerialJob  # noqa: E402
from repro.asp.runtime.fault import recovery  # noqa: E402
from repro.experiments.common import Scale, qnv_aq_workload  # noqa: E402
from repro.runtime.service import JobManager, ServiceConfig  # noqa: E402

QUERY = {
    "name": "open",
    "pattern": (
        "PATTERN SEQ(Q q1, V v1) WHERE q1.value > 82 AND v1.value < 25 "
        "AND q1.id = v1.id WITHIN 15 MINUTES SLIDE 1 MINUTE"
    ),
}
#: Per job: its submit request.
JOBS = {
    "serial": {"name": "open", "query": QUERY, "backend": "serial"},
    "sharded": {
        "name": "open",
        "query": {**QUERY, "options": {"o3": "id"}},
        "backend": "sharded",
        "shards": 2,
    },
}
STRIDES = (2, 20, 200)
#: What each count wraps.
COUNTED = {
    "renders": (SerialJob, "operator_tree"),
    "source_nodes": (graph.Dataflow, "source_nodes"),
    "clones": (graph, "clone_dataflow"),
    "restores": (recovery, "restore_job_state"),
}


def open_events(events: int, seed: int) -> list:
    """The first ``events`` Q and V events of the workload, in ts order."""
    streams = qnv_aq_workload(Scale(events=2 * events, sensors=8, seed=seed))
    merged = sorted((e for t in ("Q", "V") for e in streams[t]), key=lambda e: e.ts)
    return merged[:events]


@contextmanager
def counting(counts: dict[str, int]) -> Iterator[None]:
    """Count the calls of everything in ``COUNTED`` inside the block."""
    originals = {name: getattr(owner, attr) for name, (owner, attr) in COUNTED.items()}

    def wrap(name):
        original = originals[name]

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name, (owner, attr) in COUNTED.items():
        setattr(owner, attr, wrap(name))
    try:
        yield
    finally:
        for name, (owner, attr) in COUNTED.items():
            setattr(owner, attr, originals[name])


def measure(events: list, stride: int, request: dict) -> dict:
    """Non-terminal rounds of ``stride`` events each over ``events``."""
    manager = JobManager(ServiceConfig())
    job = manager.jobs[manager.submit(request)["id"]]
    chunks = [events[start:start + stride] for start in range(0, len(events), stride)]
    counts = dict.fromkeys(COUNTED, 0)
    busy = []
    for index, chunk in enumerate(chunks):
        for event in chunk:
            manager.ingest_event(event)
        if index == 0:
            # The first round builds the lanes' jobs; the others continue them.
            manager.run_round(job, cut=False)
            continue
        with counting(counts):
            started = time.perf_counter()
            manager.run_round(job, cut=False)
            busy.append(time.perf_counter() - started)
    manager.drain()
    tenth = max(1, len(busy) // 10)
    return {
        "stride": stride,
        "rounds": len(busy),
        "us_per_round": sum(busy) / len(busy) * 1e6,
        "first_us": sum(busy[:tenth]) / tenth * 1e6,
        "last_us": sum(busy[-tenth:]) / tenth * 1e6,
        **{name: count / len(busy) for name, count in counts.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless a round renders no tree, clones no "
                             "flow, restores no checkpoint and, serial, lists no sources")
    args = parser.parse_args(argv)
    events = open_events(args.events, args.seed)
    print(f"{len(events)} events, run_round(job, cut=False)")
    print(
        f"{'job':>7} {'stride':>6} {'rounds':>6} {'us/round':>9} {'first':>9} "
        f"{'last':>9} {'renders':>8} {'source_nodes':>12} {'clones':>7} {'restores':>8}"
    )
    failed = False
    for name, request in JOBS.items():
        for stride in STRIDES:
            if len(events) < 2 * stride:
                print(f"{name:>7} {stride:>6} skipped: fewer than two rounds of events")
                continue
            row = measure(events, stride, request)
            print(
                f"{name:>7} {row['stride']:>6} {row['rounds']:>6} "
                f"{row['us_per_round']:>9.1f} {row['first_us']:>9.1f} "
                f"{row['last_us']:>9.1f} {row['renders']:>8.2f} "
                f"{row['source_nodes']:>12.2f} {row['clones']:>7.2f} {row['restores']:>8.2f}"
            )
            failed |= row["renders"] > 0 or row["clones"] > 0 or row["restores"] > 0
            failed |= name == "serial" and row["source_nodes"] > 0
    if args.check and failed:
        print("FAIL: a non-terminal round rendered the operator tree, cloned a flow, "
              "restored a checkpoint or (serial) listed sources")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

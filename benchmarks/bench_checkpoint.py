"""Checkpoint overhead — what fault tolerance costs when nothing fails.

Runs the SEQ1 workload with checkpointing off and on (every 500 events)
and records both cells for the regression gate. The assertion bounds the
overhead: snapshotting every stateful operator at a 500-event cadence
must not halve throughput. It is pickling a few buffers, not the world:
a payload holds the window-bounded operator state and a *count* of what
each sink retains, and the sink's new items are appended once to the
store's output journal — a cut no longer pickles every match collected
so far, so its cost does not grow with the run.
"""

from benchmarks.common import bench_scale, record, record_rows
from repro.experiments.common import ExperimentRow, qnv_workload, seq2_pattern
from repro.runtime.harness import run_fasp
from repro.runtime.metrics import format_tps

CHECKPOINT_INTERVAL = 500

#: Runs per side; the one with the smallest wall is kept. The assertion
#: below orders the two sides, and a single shot per side lets a host
#: slow phase landing on one of them decide that order.
_REPS = 3


def test_checkpoint_overhead(benchmark):
    scale = bench_scale(sensors=4)
    streams = qnv_workload(scale)
    pattern = seq2_pattern(0.05, window_minutes=15)

    def run_pair():
        rows = []
        checkpoint_metrics = {}
        for parameter, interval in (
            ("checkpoint=off", None),
            ("checkpoint=on", CHECKPOINT_INTERVAL),
        ):
            measurement, _sink, result = min(
                (
                    run_fasp(pattern, streams, checkpoint_interval=interval)
                    for _ in range(_REPS)
                ),
                key=lambda run: run[2].wall_seconds,
            )
            rows.append(
                ExperimentRow.from_measurement("checkpoint", parameter, measurement)
            )
            if interval is not None:
                checkpoint_metrics = result.metrics.get("checkpoints", {})
        return rows, checkpoint_metrics

    rows, chk = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    off, on = rows
    overhead = 1.0 - on.throughput_tps / max(off.throughput_tps, 1e-9)
    record(
        "checkpoint",
        "Checkpoint overhead (SEQ1, interval "
        f"{CHECKPOINT_INTERVAL} events)\n"
        f"  off: {format_tps(off.throughput_tps)}\n"
        f"  on:  {format_tps(on.throughput_tps)}  "
        f"(overhead {overhead:+.1%})\n"
        f"  checkpoints: {chk.get('count', 0)}, "
        f"{chk.get('bytes_total', 0):,} bytes, "
        f"p95 {chk.get('duration_p95_s', 0.0) * 1000:.2f} ms",
    )
    record_rows("checkpoint", rows)
    assert not off.failed and not on.failed
    assert on.matches == off.matches  # checkpointing never alters output
    assert chk.get("count", 0) > 0
    assert on.throughput_tps >= 0.5 * off.throughput_tps, (
        f"checkpointing cost {overhead:.1%} of throughput"
    )

"""Batches of one vs batches of 256 (engine speedup cells).

Every cell pair runs the identical translated plan twice — in batches
of one (``batch_size=1``) and of up to 256 (``batch_size=256``) — so
the ratio isolates the fixed cost per batch, not plan differences. The
match counts must be identical within each pair (the equivalence suite
enforces this per event; here it doubles as a cheap sanity check on the
measured runs).

The speedup floors (>=8x on the filter-dominated SEQ1/ITER3_1 headline
cells, >=2x on the fig3a and metro-rush cells) hold at the default
20 k-event scale; smoke scales shrink the batches and windows, so the
hard floors live in ``tools/check_bench_regression.py``, not here. NSEQ1
is order-sensitive (strict arrival-order merge) and is only required not
to regress.
"""

from benchmarks.common import bench_scale, record, record_rows
from repro.experiments import batched_speedup, render_figure


def _pairs(rows):
    cells = {}
    for row in rows:
        base = row.approach.removesuffix("+batched")
        cells.setdefault((row.pattern, base, row.parameter), {})[
            "batched" if row.approach.endswith("+batched") else "serial"
        ] = row
    return cells


def test_batched_speedup(benchmark):
    rows = benchmark.pedantic(
        lambda: batched_speedup(bench_scale()), rounds=1, iterations=1
    )
    cells = _pairs(rows)
    report = render_figure(rows, "Batch size 256 vs batches of one")
    lines = ["engine speedup (batched / serial, identical plan):"]
    for (pattern, base, parameter), pair in sorted(cells.items()):
        ratio = pair["batched"].throughput_tps / pair["serial"].throughput_tps
        lines.append(f"  {pattern:20s} {parameter:12s} {base:10s} {ratio:6.2f}x")
    report += "\n\n" + "\n".join(lines)
    record("batched", report)
    record_rows("batched", rows)

    for key, pair in sorted(cells.items()):
        serial, batched = pair["serial"], pair["batched"]
        assert batched.matches == serial.matches, key
        assert batched.events_in == serial.events_in, key
        # Batching must never lose to batches of one by more than noise.
        assert batched.throughput_tps >= serial.throughput_tps * 0.7, (
            key, serial.throughput_tps, batched.throughput_tps
        )

"""Traffic congestion monitoring at scale (the paper's motivating IoT use).

A keyed congestion pattern (quantity spike followed by a velocity drop on
the *same* road segment) runs over hundreds of segments. The key-match
constraint enables optimization O3: the mapped query partitions by
segment id and scales out over the sharded execution backend (one
subgraph per shard, throughput = events / slowest shard); FCEP shards
the same way, one NFA per key.

Run:  python examples/traffic_congestion.py
"""

from repro.asp.runtime import ShardedBackend
from repro.asp.time import minutes
from repro.experiments.report import render_figure
from repro.experiments.common import ExperimentRow
from repro.mapping import TranslationOptions
from repro.runtime import format_tps, run_fasp, run_fcep
from repro.sea import parse_pattern
from repro.workloads import QnVConfig, qnv_streams


def main() -> None:
    pattern = parse_pattern(
        """
        PATTERN SEQ(Q q1, V v1)
        WHERE q1.value > 85 AND v1.value < 25 AND q1.id = v1.id
        WITHIN 15 MINUTES SLIDE 1 MINUTE
        """,
        name="congestion",
    )
    print("Monitoring pattern (keyed by road segment):")
    print(pattern.render())

    streams = qnv_streams(
        QnVConfig(num_segments=64, duration_ms=minutes(400), seed=11)
    )
    total = sum(len(v) for v in streams.values())
    print(f"\nWorkload: {total} sensor readings from 64 road segments")

    rows = []
    for shards in (1, 2, 4):
        backend = ShardedBackend(shards=shards, key_attribute="id")
        fcep, _sink, _result = run_fcep(
            pattern, streams, key_attribute="id", backend=backend
        )
        fasp, _sink, _result = run_fasp(
            pattern, streams, TranslationOptions.o1_o3(), backend=backend
        )
        rows.append(ExperimentRow.from_measurement("demo", f"shards={shards}", fcep))
        rows.append(ExperimentRow.from_measurement("demo", f"shards={shards}", fasp))
        assert fcep.matches == fasp.matches, "engines must agree on matches"
        print(
            f"  {shards} shard(s): FCEP {format_tps(fcep.throughput_tps):>14s}"
            f"   FASP-O1+O3 {format_tps(fasp.throughput_tps):>14s}"
            f"   ({fasp.matches} congestion alerts)"
        )

    print()
    print(render_figure(rows, "Congestion monitoring scale-out"))


if __name__ == "__main__":
    main()

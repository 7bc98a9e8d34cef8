"""Engine-layer numbers read off published ``RunResult``s."""

from __future__ import annotations

from perf import adapters


def engine_layers(results) -> dict[str, float]:
    """Operator busy shares (grouped by operator ``kind``), join waste,
    state and watermark counts of a set of runs, as shares of their summed
    wall time. ``scheduler.unattributed_share`` is what no operator
    accounts for: source merge, watermark broadcast, state accounting."""
    wall = sum(r.wall_seconds for r in results)
    busy: dict[str, float] = {}
    for result in results:
        for kind, seconds in adapters.operator_busy(result).items():
            busy[kind] = busy.get(kind, 0.0) + seconds

    def share(match) -> float:
        return sum(s for kind, s in busy.items() if match(kind)) / wall

    tested = sum(sum(adapters.operator_values(r, "pairs_tested")) for r in results)
    emitted = sum(sum(adapters.operator_values(r, "pairs_emitted")) for r in results)
    return {
        "serial.wall_s": wall,
        "serial.peak_state_bytes": max(r.peak_state_bytes for r in results),
        "operators.filter.busy_share": share(lambda kind: kind == "filter"),
        "operators.join.busy_share": share(lambda kind: "join" in kind),
        "operators.aggregate.busy_share": share(lambda kind: "aggregate" in kind),
        "operators.kleene.busy_share": share(lambda kind: "kleene" in kind),
        "operators.sink.busy_share": share(lambda kind: kind == "sink"),
        "operators.join.useful_ratio": emitted / tested if tested else 0.0,
        "operators.state_peak_bytes": max(
            sum(adapters.operator_values(r, "state_peak_bytes")) for r in results
        ),
        "scheduler.watermark_broadcasts": sum(
            max(adapters.operator_values(r, "watermark_calls"), default=0) for r in results
        ),
        "scheduler.unattributed_share": 1.0 - sum(busy.values()) / wall,
    }

"""Generic synthetic stream generation with controllable characteristics.

The paper's experiments vary exactly four data knobs: the event type mix,
the per-producer frequency, the number of sensors (keys — Figure 4), and
the value distribution (which, combined with the pattern's filters,
determines the output selectivity — Figure 3b). The real QnV data is no
longer publicly available (the paper's own footnote 3), so this module
generates streams with the same schema and the same controllable knobs.

Generation is fully deterministic under a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.asp.datamodel import Event, merge_events
from repro.asp.time import MS_PER_MINUTE
from repro.errors import WorkloadError


@dataclass(frozen=True)
class StreamSpec:
    """One synthetic stream of a single event type.

    ``period_ms`` is the inter-event gap per sensor (the paper's QnV
    sensors report once a minute; AQ sensors every 3–5 minutes — we use a
    fixed representative period so window grids align, see Theorem 2).
    Values are uniform in ``[value_min, value_max)``; filters with known
    thresholds then yield exact, controllable selectivities.
    """

    event_type: str
    period_ms: int = MS_PER_MINUTE
    num_sensors: int = 1
    value_min: float = 0.0
    value_max: float = 100.0
    #: Sensor ids; defaults to 1..num_sensors.
    sensor_ids: tuple[int, ...] | None = None
    #: Per-sensor phase offset in ms (defaults to 0: all aligned).
    phase_ms: int = 0

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise WorkloadError("period_ms must be positive")
        if self.num_sensors < 1:
            raise WorkloadError("num_sensors must be >= 1")
        if self.value_max <= self.value_min:
            raise WorkloadError("value_max must exceed value_min")

    def ids(self) -> tuple[int, ...]:
        if self.sensor_ids is not None:
            return self.sensor_ids
        return tuple(range(1, self.num_sensors + 1))


@dataclass
class WorkloadConfig:
    """A bundle of streams generated over a common time horizon."""

    streams: Sequence[StreamSpec]
    duration_ms: int
    seed: int = 42
    start_ts: int = 0

    def total_events(self) -> int:
        total = 0
        for spec in self.streams:
            per_sensor = self.duration_ms // spec.period_ms
            total += per_sensor * spec.num_sensors
        return total


def generate_stream(
    spec: StreamSpec, duration_ms: int, seed: int = 42, start_ts: int = 0
) -> list[Event]:
    """Generate one stream; events time-ordered, timestamps grid-aligned.

    All sensors of a stream emit at the same grid instants (plus
    ``phase_ms``), which matches the paper's per-minute road-segment
    readings and keeps the Theorem 2 slide condition satisfiable.
    """
    rng = random.Random(f"{seed}:{spec.event_type}")
    out: list[Event] = []
    steps = duration_ms // spec.period_ms
    span = spec.value_max - spec.value_min
    base_lat, base_lon = 50.1, 8.6  # Hessen-ish, like the QnV data
    for step in range(steps):
        ts = start_ts + spec.phase_ms + step * spec.period_ms
        for sensor in spec.ids():
            out.append(
                Event(
                    spec.event_type,
                    ts=ts,
                    id=sensor,
                    value=spec.value_min + rng.random() * span,
                    lat=base_lat + (sensor % 50) * 0.01,
                    lon=base_lon + (sensor // 50) * 0.01,
                )
            )
    return out


def generate_workload(config: WorkloadConfig) -> dict[str, list[Event]]:
    """Generate every stream of the workload, keyed by event type."""
    out: dict[str, list[Event]] = {}
    for spec in config.streams:
        if spec.event_type in out:
            raise WorkloadError(f"duplicate stream for type '{spec.event_type}'")
        out[spec.event_type] = generate_stream(
            spec, config.duration_ms, seed=config.seed, start_ts=config.start_ts
        )
    return out


def merged_timeline(streams: dict[str, list[Event]]) -> list[Event]:
    """All streams merged into one globally time-ordered list."""
    return merge_events(*streams.values())


def duration_for_events(
    target_events: int, streams: Sequence[StreamSpec]
) -> int:
    """Time horizon needed so the workload totals ~``target_events``.

    The paper sizes experiments in tuples (e.g. 10M); experiments here
    specify event counts and derive the horizon.
    """
    events_per_ms = sum(s.num_sensors / s.period_ms for s in streams)
    if events_per_ms <= 0:
        raise WorkloadError("workload produces no events")
    return int(target_events / events_per_ms)


def interleave_generator(
    streams: dict[str, list[Event]]
) -> Iterator[Event]:
    """Lazy merged iteration (used by very large benchmark runs)."""
    yield from merged_timeline(streams)


def zipf_weights(num_sensors: int, exponent: float = 1.0) -> list[float]:
    """Zipf-like activity weights for skewed key distributions.

    Real sensor fleets are rarely uniform: a few road segments produce
    most readings. ``exponent=0`` is uniform; larger exponents skew
    harder. Used by the skew tests to unbalance the sharded backend's shards.
    """
    if num_sensors < 1:
        raise WorkloadError("num_sensors must be >= 1")
    if exponent < 0:
        raise WorkloadError("exponent must be >= 0")
    raw = [1.0 / (rank**exponent) for rank in range(1, num_sensors + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def generate_skewed_stream(
    spec: StreamSpec,
    duration_ms: int,
    exponent: float = 1.0,
    seed: int = 42,
    start_ts: int = 0,
) -> list[Event]:
    """Like :func:`generate_stream` but sensors fire with Zipf-skewed
    probabilities: each grid instant, each sensor emits with probability
    proportional to its weight (scaled so the busiest sensor always
    fires). Total volume is lower than the uniform stream; key skew is
    the point."""
    rng = random.Random(f"{seed}:{spec.event_type}:skew")
    weights = zipf_weights(spec.num_sensors, exponent)
    top = max(weights)
    out: list[Event] = []
    steps = duration_ms // spec.period_ms
    span = spec.value_max - spec.value_min
    for step in range(steps):
        ts = start_ts + spec.phase_ms + step * spec.period_ms
        for sensor, weight in zip(spec.ids(), weights):
            if rng.random() <= weight / top:
                out.append(
                    Event(
                        spec.event_type,
                        ts=ts,
                        id=sensor,
                        value=spec.value_min + rng.random() * span,
                    )
                )
    return out


def rush_hour_profile(minute_of_day: int) -> float:
    """Traffic intensity multiplier over a day (0..1440 minutes).

    Two Gaussian peaks (8:00 and 17:30) over a night-time base — the
    "peak times" dynamic the paper points at when arguing that high
    selectivities occur exactly when detection must stay efficient
    (Section 5.2.2 discussion).
    """
    base = 0.25
    morning = 0.75 * math.exp(-(((minute_of_day - 480) / 90.0) ** 2))
    evening = 0.75 * math.exp(-(((minute_of_day - 1050) / 110.0) ** 2))
    return min(1.0, base + morning + evening)


def generate_rush_hour_traffic(
    num_segments: int,
    duration_ms: int,
    seed: int = 42,
    start_ts: int = 0,
) -> dict[str, list[Event]]:
    """Q/V streams whose values follow the rush-hour profile.

    During peaks, quantity rises toward its maximum and velocity drops —
    the correlated behaviour that makes congestion patterns selective at
    exactly the high-load moments. Timestamps stay on the one-minute
    grid; only the value distributions are modulated.
    """
    rng = random.Random(f"{seed}:rush")
    quantity: list[Event] = []
    velocity: list[Event] = []
    steps = duration_ms // MS_PER_MINUTE
    for step in range(steps):
        ts = start_ts + step * MS_PER_MINUTE
        intensity = rush_hour_profile(step % 1440)
        for segment in range(1, num_segments + 1):
            jitter = rng.uniform(-0.1, 0.1)
            level = min(1.0, max(0.0, intensity + jitter))
            quantity.append(
                Event("Q", ts=ts, id=segment, value=100.0 * level * rng.uniform(0.7, 1.0))
            )
            velocity.append(
                Event("V", ts=ts, id=segment,
                      value=150.0 * (1.0 - level) * rng.uniform(0.7, 1.0))
            )
    return {"Q": quantity, "V": velocity}

"""Shared experiment scaffolding.

Every experiment driver produces :class:`ExperimentRow` records — one per
(pattern, approach, parameter) cell of a paper figure — and the report
module renders them as the rows/series the paper plots. ``Scale``
controls workload sizes: the paper processes 10M-tuple CSV extracts on a
JVM cluster; the drivers default to workloads that keep a full figure
under a minute of (Python) wall time while preserving the shapes, and
accept larger scales for longer runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.asp.time import MS_PER_MINUTE, minutes
from repro.runtime.metrics import ThroughputMeasurement
from repro.sea.ast import Pattern
from repro.sea.parser import parse_pattern
from repro.workloads.airquality import AirQualityConfig, aq_streams
from repro.workloads.qnv import (
    QnVConfig,
    qnv_streams,
    quantity_threshold_for_selectivity,
    velocity_threshold_for_selectivity,
)


@dataclass(frozen=True)
class Scale:
    """Workload sizing for one experiment run."""

    #: Approximate total number of events per run.
    events: int = 20_000
    #: Number of sensors per stream (pre-Figure-4 experiments use few).
    sensors: int = 2
    seed: int = 42

    @staticmethod
    def small() -> "Scale":
        return Scale(events=8_000)

    @staticmethod
    def default() -> "Scale":
        return Scale()

    @staticmethod
    def large() -> "Scale":
        return Scale(events=100_000, sensors=8)


@dataclass(frozen=True)
class ExperimentRow:
    """One measured cell of a figure: approach x pattern x parameter."""

    experiment: str          # e.g. "fig3b"
    pattern: str             # e.g. "SEQ1"
    approach: str            # "FCEP", "FASP", "FASP-O1", ...
    parameter: str           # e.g. "selectivity=1%"
    throughput_tps: float
    matches: int
    events_in: int
    wall_seconds: float
    peak_state_bytes: int
    #: The run's deterministic work counter (see
    #: :attr:`~repro.asp.operators.base.Operator.work_units`).
    work_units: int = 0
    failed: bool = False
    extras: dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def from_measurement(
        experiment: str,
        parameter: str,
        measurement: ThroughputMeasurement,
        **extras: Any,
    ) -> "ExperimentRow":
        merged = dict(measurement.extras)
        merged.update(extras)
        return ExperimentRow(
            experiment=experiment,
            pattern=measurement.pattern,
            approach=measurement.label,
            parameter=parameter,
            throughput_tps=measurement.throughput_tps,
            matches=measurement.matches,
            events_in=measurement.events_in,
            wall_seconds=measurement.wall_seconds,
            peak_state_bytes=measurement.peak_state_bytes,
            work_units=measurement.work_units,
            failed=measurement.failed,
            extras=merged,
        )


def qnv_workload(scale: Scale, period_minutes: int = 1) -> dict[str, list]:
    """Q and V streams sized so both together total ~``scale.events``."""
    period = period_minutes * MS_PER_MINUTE
    events_per_minute = 2 * scale.sensors / period_minutes
    duration = int(scale.events / events_per_minute) * MS_PER_MINUTE
    config = QnVConfig(
        num_segments=scale.sensors,
        duration_ms=max(duration, 30 * MS_PER_MINUTE),
        period_ms=period,
        seed=scale.seed,
    )
    return qnv_streams(config)


def qnv_aq_workload(scale: Scale) -> dict[str, list]:
    """QnV + air-quality streams (the paper's multi-source workloads).

    AQ sensors report every four minutes; QnV every minute. Stream sizes
    are chosen so the total is ~``scale.events``.
    """
    # per minute: QnV contributes 2*sensors, AQ contributes 4*sensors/4.
    events_per_minute = 2 * scale.sensors + scale.sensors
    duration = int(scale.events / events_per_minute) * MS_PER_MINUTE
    duration = max(duration, 60 * MS_PER_MINUTE)
    qnv = qnv_streams(
        QnVConfig(num_segments=scale.sensors, duration_ms=duration, seed=scale.seed)
    )
    aq = aq_streams(
        AirQualityConfig(num_sensors=scale.sensors, duration_ms=duration, seed=scale.seed)
    )
    return {**qnv, **aq}


def seq2_pattern(
    filter_selectivity: float,
    window_minutes: int = 15,
    keyed: bool = False,
    name: str = "SEQ1",
) -> Pattern:
    """The paper's SEQ1(2): Q followed by V, both filtered."""
    q_threshold = quantity_threshold_for_selectivity(filter_selectivity)
    v_threshold = velocity_threshold_for_selectivity(filter_selectivity)
    key_clause = " AND q1.id = v1.id" if keyed else ""
    return parse_pattern(
        f"""
        PATTERN SEQ(Q q1, V v1)
        WHERE q1.value > {q_threshold:.6f} AND v1.value < {v_threshold:.6f}{key_clause}
        WITHIN {window_minutes} MINUTES SLIDE 1 MINUTE
        """,
        name=name,
    )


def iter_threshold_pattern(
    m: int,
    filter_selectivity: float,
    window_minutes: int = 15,
    name: str | None = None,
) -> Pattern:
    """ITER^m_3: threshold filter per event (paper Section 5.2.2)."""
    threshold = velocity_threshold_for_selectivity(filter_selectivity)
    return parse_pattern(
        f"""
        PATTERN ITER{m}(V v)
        WHERE v.value < {threshold:.6f}
        WITHIN {window_minutes} MINUTES SLIDE 1 MINUTE
        """,
        name=name or f"ITER{m}_3",
    )


def iter_consecutive_pattern(
    m: int,
    window_minutes: int = 15,
    filter_selectivity: float | None = None,
    name: str | None = None,
) -> Pattern:
    """ITER^m_2: inter-event constraint v_n.value < v_{n+1}.value.

    A base threshold filter bounds the qualifying events per window (the
    paper raises constraint selectivity with m to hold sigma_o constant);
    the consecutive condition then applies between repetitions.
    """
    from repro.sea.ast import EventTypeRef, Iteration, Pattern as SeaPattern
    from repro.sea.predicates import Attr, Compare, Const
    from repro.asp.operators.window import WindowSpec

    node = Iteration(
        EventTypeRef("V", "v"),
        m,
        condition=lambda prev, cur: prev.value < cur.value,
    )
    where = None
    if filter_selectivity is not None:
        threshold = velocity_threshold_for_selectivity(filter_selectivity)
        where = Compare("<", Attr("v", "value"), Const(threshold))
    kwargs = {"where": where} if where is not None else {}
    return SeaPattern(
        root=node,
        window=WindowSpec(size=minutes(window_minutes), slide=minutes(1)),
        name=name or f"ITER{m}_2",
        **kwargs,
    )


def nseq_pattern(
    window_minutes: int = 15,
    filter_selectivity: float = 0.02,
    blocker_selectivity: float = 0.2,
) -> Pattern:
    """NSEQ1(3): Q, absence of high PM10, then V (QnV + AQ sources)."""
    from repro.workloads.airquality import threshold_for_selectivity

    pm_threshold = threshold_for_selectivity("PM10", blocker_selectivity, above=True)
    q_threshold = quantity_threshold_for_selectivity(filter_selectivity)
    v_threshold = velocity_threshold_for_selectivity(filter_selectivity)
    return parse_pattern(
        f"""
        PATTERN SEQ(Q q1, !PM10 p1, V v1)
        WHERE q1.value > {q_threshold:.6f} AND v1.value < {v_threshold:.6f}
          AND p1.value > {pm_threshold:.6f}
        WITHIN {window_minutes} MINUTES SLIDE 1 MINUTE
        """,
        name="NSEQ1",
    )


#: Uniform value ranges of the six evaluation event types.
TYPE_VALUE_RANGES: dict[str, tuple[float, float]] = {
    "Q": (0.0, 100.0),
    "V": (0.0, 150.0),
    "PM10": (0.0, 120.0),
    "PM2": (0.0, 80.0),
    "TEMP": (-10.0, 40.0),
    "HUM": (10.0, 100.0),
}

#: Events per minute per sensor of each type (QnV: 1/min, AQ: 1/4min).
TYPE_RATE_PER_MINUTE: dict[str, float] = {
    "Q": 1.0, "V": 1.0, "PM10": 0.25, "PM2": 0.25, "TEMP": 0.25, "HUM": 0.25,
}


def type_threshold(event_type: str, selectivity: float) -> float:
    """Value threshold t with P(value < t) == selectivity (uniform)."""
    lo, hi = TYPE_VALUE_RANGES[event_type]
    return lo + selectivity * (hi - lo)


def seq_n_pattern(
    n: int,
    window_minutes: int = 15,
    keyed: bool = False,
    sensors: int = 1,
    target_matches_per_window: float = 1e-3,
) -> Pattern:
    """Nested SEQ(n), n in 2..6, over Q, V, PM10, PM2, TEMP, HUM.

    Per-type threshold filters keep the output selectivity constant across
    pattern lengths, as the paper does (sigma_o = 0.00032 % for every
    SEQ(n) in Figure 3d).
    """
    from repro.workloads.selectivity import calibrate_seq_n_filter

    order = ["Q", "V", "PM10", "PM2", "TEMP", "HUM"]
    if not 2 <= n <= len(order):
        raise ValueError(f"SEQ(n) supports 2 <= n <= {len(order)}")
    refs = ", ".join(f"{t} e{i}" for i, t in enumerate(order[:n], start=1))
    clauses = []
    for i, event_type in enumerate(order[:n], start=1):
        per_window = TYPE_RATE_PER_MINUTE[event_type] * sensors * window_minutes
        p = calibrate_seq_n_filter(target_matches_per_window, n, per_window)
        clauses.append(f"e{i}.value < {type_threshold(event_type, p):.6f}")
    if keyed:
        clauses.extend(f"e{i}.id = e{i + 1}.id" for i in range(1, n))
    where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
    return parse_pattern(
        f"PATTERN SEQ({refs}) {where} WITHIN {window_minutes} MINUTES SLIDE 1 MINUTE",
        name=f"SEQ({n})",
    )


def rows_summary(rows: Iterable[ExperimentRow]) -> str:
    """Quick textual dump used by the benchmark harness."""
    lines = []
    for row in rows:
        status = "FAILED" if row.failed else f"{row.throughput_tps:,.0f} tpl/s"
        lines.append(
            f"{row.experiment:8s} {row.pattern:10s} {row.approach:12s} "
            f"{row.parameter:24s} {status:>18s}  matches={row.matches}"
        )
    return "\n".join(lines)

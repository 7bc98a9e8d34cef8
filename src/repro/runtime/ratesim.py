"""Queueing model: sustainable ingestion rates and load-dependent latency.

The paper measures *maximum sustainable throughput* by probing for
backpressure (after Karimov et al. [53]) and observes detection latency
rising with load — FCEP's latency grows from 414 ms to 18 s across the
selectivity sweep while the mapped query stays in the hundreds of
milliseconds (Section 5.2.2). A single in-process run cannot show this:
there is no external arrival process to fall behind.

This module closes that gap with a standard tandem-queue model fed by
*measured* per-stage service times:

* every operator is one station served by its own task (the ASPS
  execution model); its deterministic service time is the measured
  exclusive busy time divided by the events it processed;
* offered load ``lambda`` (tuples/second) utilizes station *i* at
  ``rho_i = lambda * s_i``; the pipeline is sustainable while every
  ``rho_i < 1`` — so the maximum sustainable rate is ``1 / max(s_i)``,
  which coincides with the executor's pipeline-throughput metric;
* queueing delay per station follows the M/D/1 waiting-time formula
  ``W_i = rho_i * s_i / (2 (1 - rho_i))``; total latency adds the
  event-time buffering of lazy windowing (measured separately by
  :class:`~repro.asp.operators.sink.EventTimeLatencySink` and supplied
  by the caller when relevant).

The punchline the paper plots falls out mechanically: FCEP concentrates
its work in one station, so its service time is large, saturation comes
early, and latency blows up as the offered rate approaches it; the
decomposed pipeline spreads the same work across stations and keeps
every ``rho_i`` small at the same offered rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.asp.runtime import RunResult
from repro.errors import BackpressureError


@dataclass(frozen=True)
class Station:
    """One pipeline stage of the queueing model."""

    name: str
    #: Deterministic service time per event, seconds.
    service_s: float

    def utilization(self, offered_tps: float) -> float:
        return offered_tps * self.service_s

    def waiting_s(self, offered_tps: float) -> float:
        """M/D/1 mean waiting time at the given offered rate."""
        rho = self.utilization(offered_tps)
        if rho >= 1.0:
            return math.inf
        return rho * self.service_s / (2.0 * (1.0 - rho))

    def sojourn_s(self, offered_tps: float) -> float:
        return self.waiting_s(offered_tps) + self.service_s


@dataclass(frozen=True)
class PipelineModel:
    """A tandem of stations derived from one measured run."""

    stations: tuple[Station, ...]

    @staticmethod
    def from_run(result: RunResult) -> "PipelineModel":
        """Build the model from a run's per-stage busy times.

        Stage service time = exclusive busy seconds / events ingested.
        Stages that saw no work contribute zero-service stations (kept
        for reporting completeness).
        """
        if result.events_in <= 0:
            raise BackpressureError("cannot model a run that ingested no events")
        stations = tuple(
            Station(name, busy / result.events_in)
            for name, busy in sorted(result.stage_seconds.items())
        )
        if not stations:
            raise BackpressureError("run carries no stage timings")
        return PipelineModel(stations)

    @property
    def bottleneck(self) -> Station:
        return max(self.stations, key=lambda s: s.service_s)

    def max_sustainable_tps(self) -> float:
        """Largest offered rate with every station utilization < 1.

        This is the backpressure boundary the paper probes for: beyond
        it, the bottleneck queue grows without bound and the job must
        throttle its sources (or, with bounded buffers, fail).
        """
        service = self.bottleneck.service_s
        if service <= 0:
            return math.inf
        return 1.0 / service

    def utilization(self, offered_tps: float) -> float:
        return self.bottleneck.utilization(offered_tps)

    def is_sustainable(self, offered_tps: float) -> bool:
        return self.utilization(offered_tps) < 1.0

    def expected_latency_s(
        self, offered_tps: float, windowing_lag_s: float = 0.0
    ) -> float:
        """Mean end-to-end detection latency at the offered rate.

        Sum of per-station sojourn times (queueing + service) plus the
        event-time buffering of lazy windowing. Infinite when the rate is
        unsustainable.
        """
        if offered_tps <= 0:
            raise BackpressureError("offered rate must be positive")
        total = windowing_lag_s
        for station in self.stations:
            sojourn = station.sojourn_s(offered_tps)
            if math.isinf(sojourn):
                return math.inf
            total += sojourn
        return total

    def latency_curve(
        self,
        utilizations: tuple[float, ...] = (0.2, 0.5, 0.8, 0.95),
        windowing_lag_s: float = 0.0,
    ) -> list[tuple[float, float]]:
        """(offered rate, expected latency) at fractions of saturation."""
        peak = self.max_sustainable_tps()
        if math.isinf(peak):
            return []
        return [
            (u * peak, self.expected_latency_s(u * peak, windowing_lag_s))
            for u in utilizations
        ]

    def describe(self) -> str:
        peak = self.max_sustainable_tps()
        lines = [
            f"pipeline of {len(self.stations)} stations, "
            f"max sustainable rate {peak:,.0f} tpl/s "
            f"(bottleneck: {self.bottleneck.name})"
        ]
        for station in sorted(self.stations, key=lambda s: -s.service_s)[:6]:
            lines.append(
                f"  {station.name:40s} service {station.service_s * 1e6:9.2f} us/event"
            )
        return "\n".join(lines)


def compare_under_load(
    fcep_result: RunResult,
    fasp_result: RunResult,
    offered_tps: float,
    fasp_windowing_lag_s: float = 0.0,
) -> dict[str, float]:
    """Latency of both approaches at one offered ingestion rate.

    Returns infinity for an approach that cannot sustain the rate — the
    analog of the paper's FCEP failures at high ingestion.
    """
    fcep = PipelineModel.from_run(fcep_result)
    fasp = PipelineModel.from_run(fasp_result)
    return {
        "FCEP": fcep.expected_latency_s(offered_tps),
        "FASP": fasp.expected_latency_s(offered_tps, fasp_windowing_lag_s),
    }

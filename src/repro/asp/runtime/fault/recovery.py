"""The round protocol — one checkpoint/restart loop for batch and serve.

A *lane* is everything one (sub)flow needs to survive a crash: the
store its snapshots go to, the coordinator that takes them and measures
their cost, the injector whose crash specs must fire exactly once, and
the history of masked crashes. A serial run has one lane, a sharded run
one per shard (``<scope>/shard-i``).

A *round* (:func:`run_lane`) runs a :class:`SerialJob` over the flow from
the lane's newest cut to the end of the flow's sources. The lane keeps
the job of its last round, and the next round over the same flow object
continues it: the operators, the watermark progress, the sinks and the
source offset are where that round left them, so a round costs its new
events. A shard lane is no different: its flow is the shard flow the
lane set's split keeps growing. Without such a job — the first round, a
new process, after a crash or a failed round, or for another flow object
— the round builds a fresh job and restores the lane's latest checkpoint
into it, or takes checkpoint 0 when the lane is empty.
:func:`~repro.asp.runtime.scheduler.merge_sources` is deterministic
(ties broken by source order), so dropping the first ``offset`` pairs
reproduces exactly the prefix the checkpoint already consumed; a cut
counts what the sinks hold and the lane's output journal holds it, so
nothing is double-emitted (effectively-once output). On an
:class:`~repro.errors.InjectedFaultError` the caller's
crash handler decides whether the round is attempted again from the
lane's latest checkpoint.

``execute`` is one terminal round over fresh lanes; ``repro serve`` runs
many rounds over a job's lanes, withholding the terminal watermark until
the drain. A round delivers, a cut persists: a lane's job may stand any
number of rounds past the lane's newest cut, and a crash or a new process
restores that cut and replays the log suffix behind it — the replay is
deterministic, and its journal records replace what the lost rounds wrote.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.asp.graph import Dataflow
from repro.asp.operators.source import Source
from repro.asp.runtime.backends.base import ExecutionSettings
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.checkpoint import CheckpointCoordinator, restore_job_state
from repro.asp.runtime.fault.injection import FaultInjector, FaultPlan
from repro.asp.runtime.fault.store import CheckpointStore, InMemoryCheckpointStore
from repro.asp.runtime.observability.registry import merge_metric_trees
from repro.asp.runtime.result import RunResult
from repro.errors import InjectedFaultError

log = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.runtime.backends.serial import SerialBackend
    from repro.asp.runtime.backends.sharded import ShardedBackend


@dataclass(frozen=True)
class RestartRecord:
    """One masked crash: where it hit and where replay resumed."""

    attempt: int
    failed_at_event: int | None
    resumed_from_offset: int
    replayed_events: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "attempt": self.attempt,
            "failed_at_event": self.failed_at_event,
            "resumed_from_offset": self.resumed_from_offset,
            "replayed_events": self.replayed_events,
        }


@dataclass
class RecoveryReport:
    """Structured outcome of a lane's fault-tolerant execution."""

    recovered: bool = False
    restarts: list[RestartRecord] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        return len(self.restarts) + 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "attempts": self.attempts,
            "recovered": self.recovered,
            "restarts": [r.as_dict() for r in self.restarts],
        }


@dataclass
class Lane:
    """What lives across the attempts and rounds of one (sub)flow."""

    store: CheckpointStore
    coordinator: CheckpointCoordinator
    injector: FaultInjector
    #: Shard index of a sharded run's lane; None for a serial run's.
    shard: int | None = None
    report: RecoveryReport = field(default_factory=RecoveryReport)
    #: The job of the lane's last round, standing at the lane's newest
    #: checkpoint or past it; None when the next round has to restore.
    job: SerialJob | None = None
    #: The operator tree of a failed last round, which no live job renders.
    operators: dict[str, Any] | None = None
    #: The flow of the lane's rounds (a shard lane's: its shard flow) and
    #: its sources, listed once per flow: what they emitted, replays
    #: included, is what the lane has read.
    flow: Dataflow | None = None
    sources: list[Source] = field(default_factory=list)

    def operator_tree(self) -> dict[str, Any]:
        """The lane's per-operator metric tree as of its last round."""
        if self.job is not None:
            return self.job.operator_tree()
        return self.operators or {}

    def cut(self, terminal: bool = False) -> None:
        """Checkpoint the live job unless it stands at the newest cut. One
        that ended on a cadence multiple was checkpointed on its last event
        and nothing moved since — unless the terminal watermark did."""
        job = self.job
        if job is not None and (terminal or self.coordinator.last_offset != job.events_in):
            self.coordinator.take(job)


def open_lanes(
    store: CheckpointStore,
    interval: int | None,
    plan: FaultPlan | None,
    shards: int | None = None,
) -> list[Lane]:
    """The lanes of a run over ``store``: one for a serial run, or with
    ``shards`` one per shard, each on the ``shard-i`` scope of the store
    with its slice of the fault plan."""

    def lane(scope: CheckpointStore, faults: FaultPlan | None, shard: int | None) -> Lane:
        return Lane(
            scope,
            CheckpointCoordinator(scope, interval),
            FaultInjector(faults or FaultPlan()),
            shard,
        )

    if shards is None:
        return [lane(store, plan, None)]
    return [
        lane(store.scoped(f"shard-{i}"), plan and plan.for_shard(i), i)
        for i in range(shards)
    ]


#: Called with (lane, crash, offset replay would resume from); True
#: retries the round from the lane's latest checkpoint.
CrashHandler = Callable[[Lane, InjectedFaultError, int], bool]


def run_lane(
    flow: Dataflow,
    settings: ExecutionSettings,
    lane: Lane | None,
    on_crash: CrashHandler,
    *,
    terminal: bool = True,
    cut: bool = False,
) -> RunResult:
    """One round of ``flow`` on ``lane``; the only restart loop there is.

    The round continues the lane's live job when that job was built over
    this very ``flow`` object. Otherwise, and for every attempt after a
    crash, it builds a fresh one — a crashed job's channels and
    instrumentation are abandoned, the operator instances are rebuilt
    from the checkpoint. When ``on_crash`` gives up, the round returns
    the crashed attempt's failed result. A successful round leaves its
    job on the lane for the next one and for reads of its operator tree,
    a failed one leaves that tree; ``cut`` also takes a round-boundary
    checkpoint (only ``repro serve`` asks for it): that is what a crash
    in a later round, or the next process, restores.
    Without a lane the flow just runs: no checkpoints, no masked crashes.
    """
    if lane is None:
        return SerialJob(flow, settings).run(terminal_watermark=terminal)
    if lane.flow is not flow:
        lane.flow, lane.sources = flow, [node.source for node in flow.source_nodes()]
        lane.job = None
    job, lane.job = lane.job, None
    if job is not None:
        log.debug("lane %r: continued live at offset %d", lane.store, job.events_in)
    latest = None if job is not None else lane.store.latest()
    while True:
        if job is None:
            job = SerialJob(
                flow, settings, injector=lane.injector, coordinator=lane.coordinator
            )
            if latest is None:
                # Checkpoint 0: the pristine pre-stream state, so a crash
                # before the first cadence checkpoint can still recover.
                latest = lane.coordinator.take(job)
            else:
                restore_job_state(job, *lane.coordinator.load(latest))
        try:
            result = job.run(terminal_watermark=terminal)
            break
        except InjectedFaultError as exc:
            latest = lane.store.latest() or latest
            if not on_crash(lane, exc, latest.offset):
                result = job.to_failed_result(str(exc))
                break
            lane.report.restarts.append(
                RestartRecord(
                    attempt=lane.report.attempts,
                    failed_at_event=exc.at_event,
                    resumed_from_offset=latest.offset,
                    replayed_events=max(0, (exc.at_event or 1) - 1 - latest.offset),
                )
            )
            job = None
    lane.report.recovered = not result.failed and bool(lane.report.restarts)
    if result.failed:
        lane.operators = result.metrics["operators"]
    else:
        lane.job = job
        if cut:
            lane.cut(terminal)
    return result


def execute_round(
    backend: "SerialBackend | ShardedBackend",
    flow: Dataflow,
    settings: ExecutionSettings,
) -> RunResult:
    """A backend's ``execute``: its round, once, terminal, on fresh lanes.

    Lanes exist only when the settings ask for fault tolerance; each may
    restart ``settings.max_restarts`` times. The lanes' recovery and
    checkpoint views land in ``RunResult.metrics``.
    """

    def within_budget(lane: Lane, _exc: InjectedFaultError, _offset: int) -> bool:
        return len(lane.report.restarts) < settings.max_restarts

    if not settings.fault_tolerant:
        return backend.run_round(flow, settings, None, within_budget)
    lanes = open_lanes(
        settings.checkpoint_store or InMemoryCheckpointStore(),
        settings.checkpoint_interval,
        settings.fault_plan,
        backend.shards,
    )
    result = backend.run_round(flow, settings, lanes, within_budget)
    result.metrics["recovery"] = recovery_metrics(lanes)
    result.metrics["checkpoints"] = checkpoint_metrics(lanes)
    return result


def recovery_metrics(lanes: Sequence[Lane]) -> dict[str, Any]:
    """A serial lane's report, or the job-level sums over shard lanes
    with the per-shard reports kept."""
    reports = [lane.report.as_dict() for lane in lanes]
    if lanes[0].shard is None:
        return reports[0]
    return {
        "attempts": sum(r["attempts"] for r in reports),
        "restarts": sum(len(r["restarts"]) for r in reports),
        "recovered": all(r["recovered"] or not r["restarts"] for r in reports),
        "shards": [{"shard": lane.shard, **r} for lane, r in zip(lanes, reports)],
    }


def checkpoint_metrics(lanes: Sequence[Lane]) -> dict[str, Any]:
    """Checkpoint overhead of a run or a job: a serial lane's coordinator
    view, or the same keys summed over shard lanes plus ``shards``."""
    per_lane = [lane.coordinator.metrics() for lane in lanes]
    if lanes[0].shard is None:
        return per_lane[0]
    return {
        "count": sum(c["count"] for c in per_lane),
        "bytes_total": sum(c["bytes_total"] for c in per_lane),
        "interval": per_lane[0]["interval"],
        "duration": merge_metric_trees(
            {"duration": c["duration"]} for c in per_lane
        )["duration"],
        "duration_p95_s": max(c["duration_p95_s"] for c in per_lane),
        "shards": [{"shard": lane.shard, **c} for lane, c in zip(lanes, per_lane)],
    }

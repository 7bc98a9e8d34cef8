"""Job manager: live queries as incremental checkpoint-backed rounds.

A *job* is one submission — a catalog query name, an inline pattern, or
a co-submitted batch sharing scans — compiled and statically verified
once, by one :func:`~repro.mapping.multiquery.translate_many` call,
into a dataflow whose every scan reads a single
arrival-ordered ingestion log (one physical source node; the translator
routes per type).

Execution is *incremental replay*, built from the PR 4 fault-tolerance
primitives rather than a new engine: ingested events queue in a bounded
per-job ingress buffer; whenever a job has queued input the worker drains
it into the job's log and runs a **round** of the job's backend on the
job's lanes (:mod:`repro.asp.runtime.fault.recovery`) — the same
``run_round`` a one-shot ``execute`` runs once: continue each lane's live
job from the log offset it stopped at (or, without one, restore the
lane's latest checkpoint: operator state, watermark progress, sink
contents, source offset) and read the log from that offset. A round's
size is what arrived while the previous one ran. A round delivers, a
**cut** persists: checkpoints follow ``checkpoint_interval`` inside
rounds, a producer's heartbeat or flush, and the drain — not the rounds.
The terminal watermark is withheld until the final drain round, so
windows stay open across rounds exactly as they would in one continuous
run.
Crashes (injected or real ``InjectedFaultError``) retry from the latest
checkpoint under the job's restart budget; every cut counts what the
sinks hold and the lane's output journal holds it, so output is
effectively-once across any number of worker restarts.

Admission control: when a job's ingress queue is full the configured
policy either **rejects** the event with a ``retry_after_ms`` hint or
**blocks** the producer until the worker drains (TCP backpressure).
Both decisions are counted in the job's metrics tree.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.asp.datamodel import Event, TypeRegistry
from repro.asp.operators.source import LogSource
from repro.asp.runtime import (
    DirectoryCheckpointStore,
    ExecutionSettings,
    InMemoryCheckpointStore,
    Lane,
    RunResult,
    SerialBackend,
    ShardedBackend,
    checkpoint_metrics,
    open_lanes,
    parse_fault_plan,
    run_report,
)
from repro.asp.runtime.backends.base import DEFAULT_BATCH_SIZE
from repro.asp.runtime.backends.sharded import SHARD_MODES, shutdown_pool
from repro.asp.runtime.fault.injection import FaultPlan
from repro.asp.runtime.fault.store import unpickle_payload
from repro.asp.runtime.observability import (
    MetricsRegistry,
    OperatorRecord,
    add_operator_records,
)
from repro.errors import (
    ExecutionError,
    InjectedFaultError,
    ReproError,
    ServiceError,
    StaticAnalysisError,
)
from repro.mapping.multiquery import MultiQuery, translate_many
from repro.mapping.optimizations import TranslationOptions
from repro.runtime.service.events import (
    SourceTracker,
    event_from_wire,
    event_to_wire,
)
from repro.runtime.service.state import ServiceState
from repro.sea.parser import parse_pattern

log = logging.getLogger(__name__)

#: Admission policies for a full ingress queue.
AdmissionPolicy = ("reject", "block")

#: Execution backends for a job's rounds; "auto" picks "sharded" exactly
#: when every plan carries a partition attribute and the merged dataflow
#: passes the RA40x partition-safety proof.
JobBackend = ("auto", "serial", "sharded")


#: Bucket edges of the per-round histograms: ms for the trigger latency
#: and the duration, events for the round size.
_ROUND_BOUNDS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

#: The idle worker's wait. No wake-up is lost (flag and wait share
#: ``_wake``); the timeout only bounds how long a bug there could hide.
_IDLE_WAIT_S = 0.05


class JobState:
    """Lifecycle of a job (plain string constants, JSON-friendly)."""

    RUNNING = "running"
    DRAINED = "drained"
    CANCELLED = "cancelled"
    FAILED = "failed"


#: Submit keys that override a :class:`ServiceConfig` field for one job.
_JOB_OVERRIDES = {
    "admission": "admission",
    "queue_limit": "queue_limit",
    "retry_after_ms": "retry_after_ms",
    "checkpoint_interval": "checkpoint_interval",
    "max_restarts": "max_restarts",
    "batch_size": "batch_size",
    "max_out_of_orderness": "max_out_of_orderness",
    "optimize": "optimize",
    "backend": "job_backend",
    "shards": "job_shards",
    "shard_mode": "shard_mode",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide defaults; submissions may override the per-job knobs."""

    #: Bounded ingress queue capacity per job.
    queue_limit: int = 10_000
    #: "reject" (429 + retry_after) or "block" (producer backpressure).
    admission: str = "reject"
    #: Hint returned with rejections.
    retry_after_ms: int = 250
    #: Checkpoint cadence inside rounds (events); None disables cadence
    #: checkpoints (a heartbeat, a flush and the drain still cut).
    checkpoint_interval: int | None = 500
    #: Restart budget per job across its whole lifetime.
    max_restarts: int = 3
    #: Most events per micro-batch of a round (1 = batches of one).
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Allowed event-time disorder of the ingestion stream (ms).
    max_out_of_orderness: int = 0
    #: Optimizer mode applied at submit ("off"/"static"; serve has no
    #: metrics report to feed "profile").
    optimize: str = "off"
    #: Durable state root (WAL, job manifests, per-job checkpoint
    #: subdirectories) enabling kill −9 → restart → resume; None keeps
    #: everything in memory.
    state_dir: str | None = None
    #: Default execution backend for submitted jobs.
    job_backend: str = "auto"
    #: Shard count for sharded jobs.
    job_shards: int = 2
    #: Sharded round dispatch: worker processes, inline, or auto.
    shard_mode: str = "auto"

    def __post_init__(self) -> None:
        for name, allowed in (
            ("admission", AdmissionPolicy),
            ("job_backend", JobBackend),
            ("shard_mode", SHARD_MODES),
            ("optimize", ("off", "static")),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        for name, minimum in (
            ("queue_limit", 1),
            ("job_shards", 1),
            ("batch_size", 1),
            ("max_restarts", 0),
            ("retry_after_ms", 0),
            ("max_out_of_orderness", 0),
        ):
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1 (or null to disable)")

    def for_job(self, request: Mapping[str, Any]) -> "ServiceConfig":
        """This configuration with one submission's overrides applied.

        The one place per-job knobs are resolved: an override is held to
        exactly the checks the server-wide value passes, and anything
        malformed is the client's error, not the server's.
        """
        overrides: dict[str, Any] = {}
        try:
            for key, name in _JOB_OVERRIDES.items():
                if key in request:
                    value = request[key]
                    # Every non-text knob accepts what ``int()`` accepts
                    # (JSON clients send "2" and 2.0 for 2); null stays.
                    verbatim = isinstance(getattr(self, name), str) or value is None
                    overrides[name] = value if verbatim else int(value)
            return replace(self, **overrides)
        except (TypeError, ValueError) as exc:
            raise ServiceError("bad-request", f"invalid job override: {exc}") from exc


@dataclass
class Job:
    """One live submission and all of its runtime state."""

    job_id: str
    name: str
    query_names: list[str]
    #: The compile result: per query its pattern, plan, sink and static
    #: analysis report, plus the merged dataflow, the shared scans and
    #: the co-submission's sharability proof.
    compiled: MultiQuery
    #: The service configuration with this job's overrides applied.
    config: ServiceConfig
    settings: ExecutionSettings
    #: The backend whose ``run_round`` executes this job's rounds.
    runner: SerialBackend | ShardedBackend
    #: One checkpoint/restart lane for a serial job (scope ``<job>/``),
    #: one per shard for a sharded one (``<job>/shard-i/``).
    lanes: list[Lane]
    event_types: frozenset[str]
    #: Monotonic enqueue time of the oldest queued event.
    pending_since: float | None = None
    #: Per-tenant lifecycle of a shared-scan group ("running"/"cancelled").
    tenant_states: dict[str, str] = field(default_factory=dict)
    #: Match keys frozen at per-tenant cancel time (served thereafter).
    frozen_matches: dict[str, list[str]] = field(default_factory=dict)
    state: str = JobState.RUNNING
    failure: str | None = None
    log: list[Event] = field(default_factory=list)
    queue: deque = field(default_factory=deque)
    cond: threading.Condition = field(default_factory=threading.Condition)
    run_lock: threading.Lock = field(default_factory=threading.Lock)
    flush_requested: bool = False
    #: Admitted events not yet published to ``queue`` (their ingest run
    #: is not committed yet); they count against ``queue_limit``.
    reserved: int = 0
    events_processed: int = 0
    items_out: int = 0
    wall_seconds: float = 0.0
    peak_state_bytes: int = 0
    work_units: int = 0
    rounds: int = 0
    restarts: list[dict[str, Any]] = field(default_factory=list)
    #: Per operator scope, its numbers summed over the rounds.
    operator_records: dict[str, OperatorRecord] = field(default_factory=dict)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Per query name: the sink list the keys were rendered from, how
    #: many of its items they cover, and the sorted keys.
    _match_keys: dict[str, tuple[list, int, list[str]]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        scope = self.registry.scope("ingress")
        self.accepted = scope.counter("admission.accepted")
        self.rejected = scope.counter("admission.rejected")
        self.blocked = scope.counter("admission.blocked")
        self.queue_depth = scope.gauge("queue.depth", agg="max")
        self.log_size = scope.gauge("log.size", agg="max")
        rounds_scope = self.registry.scope("rounds")
        #: Time from the oldest event's enqueue to its round starting.
        self.trigger_latency_ms = rounds_scope.histogram(
            "trigger_latency_ms", bounds=_ROUND_BOUNDS
        )
        self.round_duration_ms = rounds_scope.histogram(
            "duration_ms", bounds=_ROUND_BOUNDS
        )
        #: New events per round: what arrived while the last one ran.
        self.events_per_round = rounds_scope.histogram(
            "events_per_round", bounds=_ROUND_BOUNDS
        )
        #: Source events the rounds pulled from the log, replayed ones
        #: included; equals ``events_processed`` while every round reads
        #: only what it has not seen.
        self.events_read = rounds_scope.counter("events_read")

    # -- ingestion ---------------------------------------------------------

    def admit(self, *, draining: bool) -> str | None:
        """Reserve queue room for one event without waiting (admission
        control).

        Returns None when reserved, else the stable reason: the job's
        state, ``draining`` or ``queue-full`` (which the caller answers
        by rejecting or by :meth:`await_room`). A reserved slot counts
        against ``queue_limit`` until :meth:`publish` puts its event on
        the queue — after its WAL record in durable mode, so no round
        can read (and cut past) an event the WAL does not have yet.
        """
        with self.cond:
            if self.state != JobState.RUNNING:
                return f"job-{self.state}"
            if draining:
                return "draining"
            if len(self.queue) + self.reserved >= self.config.queue_limit:
                return "queue-full"
            self.reserved += 1
        return None

    def await_room(self) -> str | None:
        """``block`` admission: wait until one slot is free and reserve
        it. None when reserved, else the job's state once it stopped."""
        with self.cond:
            self.blocked.inc()
            while (
                len(self.queue) + self.reserved >= self.config.queue_limit
                and self.state == JobState.RUNNING
            ):
                self.cond.wait(timeout=0.05)
            if self.state != JobState.RUNNING:
                self.rejected.inc()
                return f"job-{self.state}"
            self.reserved += 1
        return None

    def publish(self, events: list[Event]) -> bool:
        """Queue admitted events into their reserved slots. True when the
        queue was empty, so the worker may be asleep."""
        with self.cond:
            self.reserved -= len(events)
            ready = not self.queue
            if ready:
                self.pending_since = time.monotonic()
            self.queue.extend(events)
            self.accepted.inc(len(events))
            self.queue_depth.set(len(self.queue))
        return ready

    def drain_queue(self) -> tuple[float | None, bool]:
        """Move queued events into the log; unblocks waiting producers.
        Returns the oldest one's wait (ms, None if none) and whether a
        flush was asked for since the last call."""
        with self.cond:
            waited = None
            if self.queue:
                waited = (time.monotonic() - self.pending_since) * 1000.0
                self.log.extend(self.queue)
                self.queue.clear()
            self.pending_since = None
            flush, self.flush_requested = self.flush_requested, False
            self.queue_depth.set(0)
            self.log_size.set(len(self.log))
            self.cond.notify_all()
        return waited, flush

    @property
    def pending(self) -> int:
        with self.cond:
            return len(self.queue)

    def wants_round(self) -> bool:
        """The one round trigger: running, and input queued or a flush asked."""
        with self.cond:
            return self.state == JobState.RUNNING and (
                bool(self.queue) or self.flush_requested
            )

    @property
    def backend(self) -> str:
        return self.runner.name

    @property
    def shards(self) -> int | None:
        return self.runner.shards

    def record_restart(
        self, lane: Lane, exc: InjectedFaultError, resumed_from: int
    ) -> bool:
        """Account one injected-crash restart; False once the budget is gone
        (the job is marked failed)."""
        entry: dict[str, Any] = {
            "failed_at_event": exc.at_event,
            "resumed_from_offset": resumed_from,
            "round": self.rounds,
        }
        if lane.shard is not None:
            entry["shard"] = lane.shard
        with self.cond:
            if self.state == JobState.FAILED:
                return False  # another shard already spent the budget
            self.restarts.append(entry)
            if len(self.restarts) > self.config.max_restarts:
                self.state = JobState.FAILED
                self.failure = f"restart budget exhausted: {exc}"
                return False
        return True

    def match_keys(self, name: str) -> list[str]:
        """Canonical (sorted dedup-key) matches of one tenant — the frozen
        snapshot for a cancelled tenant, the live sink otherwise.

        A match's key is rendered once: the sorted list is kept and
        extended with what the sink gained since the last call. A sink's
        item list only grows at its end; whatever replaces its contents
        (a restore after a crash, a sharded round's fold) installs a new
        list, and the keys are then rendered afresh.
        """
        frozen = self.frozen_matches.get(name)
        if frozen is not None:
            return list(frozen)
        query = self.compiled.queries[self.query_names.index(name)]
        items, seen, keys = self._match_keys.get(name) or (None, 0, [])
        if items is not query.sink.items:
            items, seen, keys = query.sink.items, 0, []
        if len(items) > seen:
            keys.extend(repr(m.dedup_key()) for m in query.matches(seen))
            keys.sort()
            self._match_keys[name] = (items, len(items), keys)
        return list(keys)

    def match_count(self, name: str) -> int:
        """``len(match_keys(name))`` without building the keys."""
        frozen = self.frozen_matches.get(name)
        if frozen is not None:
            return len(frozen)
        sink = self.compiled.sinks[self.query_names.index(name)]
        return sink.count if sink is not None else 0


#: The per-query ``options`` a submission may set (others are ignored).
_OPTION_KEYS = ("o1", "o2", "iter", "o3", "multiway")


def _parse_query_spec(spec: Any, index: int) -> tuple[str, Any, TranslationOptions]:
    """One submitted query -> (name, pattern, options)."""
    from repro.mapping.advisor import recommend_options
    from repro.patterns import CATALOG

    if isinstance(spec, str):
        spec = {"catalog": spec}
    if not isinstance(spec, Mapping):
        raise ServiceError("bad-query", "query must be a name or an object")
    if "catalog" in spec:
        catalog_name = spec["catalog"]
        factory = CATALOG.get(catalog_name)
        if factory is None:
            raise ServiceError(
                "unknown-query",
                f"unknown catalog query '{catalog_name}' "
                f"(available: {sorted(CATALOG)})",
                status=404,
            )
        pattern = factory()
        name = spec.get("name") or catalog_name
    elif "pattern" in spec:
        text = spec["pattern"]
        if not isinstance(text, str) or not text.strip():
            raise ServiceError("bad-pattern", "'pattern' must be pattern text")
        name = spec.get("name") or f"inline-{index}"
        try:
            pattern = parse_pattern(text, name=name)
        except ReproError as exc:
            raise ServiceError("bad-pattern", str(exc)) from exc
    else:
        raise ServiceError(
            "bad-query", "query needs 'catalog' (a name) or 'pattern' (text)"
        )
    overrides = spec.get("options")
    if overrides is None:
        options = recommend_options(pattern).options
    elif not isinstance(overrides, Mapping):
        raise ServiceError(
            "bad-query", "query 'options' must be an object of o1/o2/iter/o3/multiway"
        )
    else:
        try:
            options = TranslationOptions.from_flags(
                **{key: overrides.get(key) for key in _OPTION_KEYS}
            )
        except ReproError as exc:
            raise ServiceError("bad-query", f"bad query options: {exc}") from exc
    return name, pattern, options


def _select_backend(
    config: ServiceConfig, options_list: list[TranslationOptions], flow: Any
) -> SerialBackend | ShardedBackend:
    """Pick the round backend from the plan's partition-safety proof.

    "sharded" needs every co-submitted plan to carry the *same* partition
    attribute (O3) and the merged dataflow to pass the RA40x proof — the
    same admission :class:`~repro.asp.runtime.backends.sharded
    .ShardedBackend` enforces. "auto" degrades to "serial" when the proof
    fails; an explicit "sharded" request surfaces the diagnostics as a
    structured 400 instead.
    """
    from repro.analysis.partition import shardability_diagnostics

    requested = config.job_backend
    if requested == "serial":
        return SerialBackend()
    keys = sorted({
        options.partition_attribute
        for options in options_list
        if options.partition_attribute
    })
    key = keys[0] if len(keys) == 1 and all(
        options.partition_attribute for options in options_list
    ) else None
    diagnostics = shardability_diagnostics(flow) if key is not None else []
    if key is not None and not diagnostics:
        return ShardedBackend(config.job_shards, key, config.shard_mode)
    if requested == "sharded":
        if key is None:
            raise ServiceError(
                "not-shardable",
                "sharded backend needs every query to carry the same O3 "
                "partition attribute (options.o3)",
            )
        raise ServiceError(
            "not-shardable",
            "the merged plan failed the RA40x partition-safety proof: "
            + "; ".join(d.message for d in diagnostics),
            details=[d.as_dict() for d in diagnostics],
        )
    return SerialBackend()


class JobManager:
    """Owns every live job plus the shared ingestion bookkeeping.

    Thread model: server threads call :meth:`submit`/:meth:`ingest_events`/
    :meth:`cancel`/read endpoints; one background worker thread runs the
    processing rounds, one per job with queued input per pass, and sleeps
    only when no job has any. ``drain`` runs final rounds synchronously in
    the calling thread (the per-job ``run_lock`` keeps rounds exclusive).
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.jobs: dict[str, Job] = {}
        self.tracker = SourceTracker()
        self.unrouted = 0
        self.draining = False
        #: Set by :meth:`resume` when a restart picked up durable jobs.
        self.resumed: dict[str, Any] | None = None
        self._jobs_lock = threading.Lock()
        self._ingest_lock = threading.Lock()
        self._wake = threading.Condition()
        self._kicked = False  # set by kick(), cleared before each worker pass
        self._stop = threading.Event()
        self._worker: threading.Thread | None = None
        durable = self.config.state_dir
        self.state: ServiceState | None = ServiceState(durable) if durable else None
        self._base_store = (
            DirectoryCheckpointStore(durable) if durable else InMemoryCheckpointStore()
        )
        # Job ids continue where the previous incarnation stopped.
        start_at = self.state.max_job_number() + 1 if self.state else 1
        self._ids = itertools.count(start_at)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._worker is None:
            self.resume()
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-serve-worker", daemon=True
            )
            self._worker.start()

    def stop(self) -> None:
        self._stop.set()
        self.kick()
        if self._worker is not None:
            self._worker.join(timeout=10)
            self._worker = None
        if self.state is not None:
            self.state.close()
        shutdown_pool()

    # -- durable resume ----------------------------------------------------

    def resume(self) -> None:
        """Rebuild every non-terminal persisted job and replay the WAL.

        Called once at startup, before the worker thread exists, so no
        locking subtleties: restore the tracker snapshot (dedup horizon),
        re-run ``_build_job`` on each persisted submit request under its
        original job id (the compile is deterministic, so plans, flows
        and backend selection come out identical), restore the progress
        counters, then replay the ingestion WAL through each line's
        recorded routing set. That rebuilds every job's arrival-ordered
        log byte-identically — the per-job (and per-shard) checkpoints
        on disk hold offsets into exactly this log, so the next round
        restores the newest checkpoint and continues as if the process
        had never died.

        Terminal jobs (drained/cancelled/failed) are not resurrected:
        their results were served by the previous incarnation and their
        checkpoint chains stay on disk for forensics only.
        """
        if self.state is None:
            return
        snapshot = self.state.load_tracker()
        if snapshot:
            self.tracker.restore(snapshot)
        resumed: dict[str, Job] = {}
        for doc in self.state.load_jobs():
            progress = doc.get("progress") or {}
            if progress.get("state", JobState.RUNNING) != JobState.RUNNING:
                continue
            job = self._build_job(doc["request"], doc["job_id"])
            with job.run_lock, job.cond:
                job.events_processed = int(progress.get("events_processed", 0))
                job.rounds = int(progress.get("rounds", 0))
                job.items_out = int(progress.get("items_out", 0))
                job.wall_seconds = float(progress.get("wall_seconds", 0.0))
                job.peak_state_bytes = int(progress.get("peak_state_bytes", 0))
                job.work_units = int(progress.get("work_units", 0))
                job.restarts = list(progress.get("restarts", []))
                job.tenant_states.update(progress.get("tenants", {}))
                job.frozen_matches = {
                    name: list(keys)
                    for name, keys in progress.get("frozen_matches", {}).items()
                }
            resumed[job.job_id] = job
        if not resumed:
            return
        with self._jobs_lock:
            self.jobs.update(resumed)
        replayed = 0
        for wire, job_ids in self.state.replay_wal():
            self.tracker.record(wire.get("source"), wire.get("seq"))
            event = event_from_wire(wire)
            for job_id in job_ids:
                job = resumed.get(job_id)
                if job is None:
                    continue
                with job.cond:
                    job.log.append(event)
                    job.log_size.set(len(job.log))
            replayed += 1
        self.resumed = {"jobs": sorted(resumed), "wal_events": replayed}

    def _persist_progress(self, job: Job) -> None:
        """Write the job's mutable progress record (durable mode only)."""
        if self.state is None:
            return
        with job.cond:
            progress = {
                "state": job.state,
                "failure": job.failure,
                "events_processed": job.events_processed,
                "rounds": job.rounds,
                "items_out": job.items_out,
                "wall_seconds": job.wall_seconds,
                "peak_state_bytes": job.peak_state_bytes,
                "work_units": job.work_units,
                "restarts": list(job.restarts),
                "tenants": dict(job.tenant_states),
                "frozen_matches": {
                    name: list(keys)
                    for name, keys in job.frozen_matches.items()
                },
            }
        self.state.write_progress(job.job_id, progress)

    # -- submit / cancel ---------------------------------------------------

    def submit(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Compile and register a submission; returns the job document.

        ``request``: ``{"name": ..., "query": <spec>}`` or ``{"name":
        ..., "queries": [<spec>, ...]}`` (co-submitted queries share
        scans), plus an optional ``fault_plan`` and per-job overrides of
        the service configuration (the keys of ``_JOB_OVERRIDES``,
        resolved by :meth:`ServiceConfig.for_job`). Keys this version
        does not know — including the retired ``fusion``/``columnar`` and
        ``round_events``/``round_slo_ms`` of older requests and durable
        manifests — are ignored.
        """
        if self.draining:
            raise ServiceError("draining", "server is draining", status=503)
        if not isinstance(request, Mapping):
            raise ServiceError("bad-request", "submit body must be a JSON object")
        job = self._build_job(request, f"job-{next(self._ids)}")
        with self._jobs_lock:
            taken = {
                other.name
                for other in self.jobs.values()
                if other.state in (JobState.RUNNING, JobState.DRAINED)
            }
            if job.name in taken:
                raise ServiceError(
                    "duplicate-job",
                    f"a job named '{job.name}' already exists",
                    status=409,
                )
            self.jobs[job.job_id] = job
        if self.state is not None:
            self.state.write_manifest(job.job_id, dict(request))
            self._persist_progress(job)
        return self.job_status(job.job_id)

    def _build_job(self, request: Mapping[str, Any], job_id: str) -> Job:
        """Parse, compile and verify one submission into an unregistered Job."""
        specs = request.get("queries")
        if specs is None:
            single = request.get("query")
            if single is None:
                raise ServiceError(
                    "bad-request", "submit needs 'query' or 'queries'"
                )
            specs = [single]
        if not isinstance(specs, (list, tuple)) or not specs:
            raise ServiceError("bad-request", "'queries' must be a non-empty list")

        parsed = [_parse_query_spec(spec, i) for i, spec in enumerate(specs)]
        names = [name for name, _p, _o in parsed]
        if len(set(names)) != len(names):
            raise ServiceError(
                "duplicate-query", f"co-submitted query names must be unique: {names}"
            )
        job_name = request.get("name") or names[0]
        config = self.config.for_job(request)
        fault_plan: FaultPlan | None = None
        if request.get("fault_plan"):
            try:
                fault_plan = parse_fault_plan(request["fault_plan"])
            except ExecutionError as exc:
                raise ServiceError("bad-fault-plan", str(exc)) from exc

        log: list[Event] = []
        shared = LogSource(log, name=f"ingest[{job_id}]")
        event_types = frozenset(
            t for _n, pattern, _o in parsed
            for t in pattern.distinct_event_types()
        )
        options_list = [options for _n, _p, options in parsed]
        # One compile, verifier on: the static plan verifier runs on every
        # submitted query and on the merged dataflow that will execute
        # before anything is registered, so a plan that cannot execute
        # safely is a structured 400, not a later crash.
        try:
            compiled = translate_many(
                [pattern for _n, pattern, _o in parsed],
                {t: shared for t in sorted(event_types)},
                options_list,
                optimize=config.optimize,
                registry=TypeRegistry.paper_default(),
            )
        except ReproError as exc:
            culprit = (
                f"query '{names[exc.pattern_index]}'"
                if exc.pattern_index is not None
                else "submission"
            )
            if isinstance(exc, StaticAnalysisError):
                raise ServiceError(
                    "static-analysis",
                    f"{culprit} failed static analysis: {exc}",
                    details=[d.as_dict() for d in exc.diagnostics],
                ) from exc
            raise ServiceError(
                "translation", f"{culprit} cannot be translated: {exc}"
            ) from exc
        # Sharability pre-flight: a co-submission whose proven-shared
        # prefixes demand conflicting O3 partition keys (RA813) cannot
        # run merged — reject it with the prover's diagnostics attached.
        sharing = compiled.sharing
        if sharing is not None and not sharing.ok():
            raise ServiceError(
                "sharing-conflict",
                "co-submission failed the sharability proof: "
                + "; ".join(d.message for d in sharing.diagnostics if d.is_error),
                details=[d.as_dict() for d in sharing.diagnostics],
            )
        runner = _select_backend(config, options_list, compiled.env.flow)
        settings = ExecutionSettings(
            watermark_interval=min(plan.window_slide for plan in compiled.plans),
            max_out_of_orderness=config.max_out_of_orderness,
            checkpoint_interval=config.checkpoint_interval,
            batch_size=config.batch_size,
        )
        return Job(
            job_id=job_id,
            name=job_name,
            query_names=names,
            compiled=compiled,
            config=config,
            settings=settings,
            runner=runner,
            lanes=open_lanes(
                self._base_store.scoped(job_id),
                config.checkpoint_interval,
                fault_plan,
                runner.shards,
            ),
            event_types=event_types,
            tenant_states={name: "running" for name in names},
            log=log,
        )

    def _get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            # Names are also accepted where they are unambiguous.
            named = [j for j in self.jobs.values() if j.name == job_id]
            if len(named) == 1:
                return named[0]
            raise ServiceError("unknown-job", f"no job '{job_id}'", status=404)
        return job

    def cancel(self, job_id: str) -> dict[str, Any]:
        job = self._get(job_id)
        with job.cond:
            if job.state == JobState.RUNNING:
                job.state = JobState.CANCELLED
                job.queue.clear()
                job.queue_depth.set(0)
                job.cond.notify_all()
        self._persist_progress(job)
        return self.job_status(job.job_id)

    def cancel_tenant(self, job_id: str, tenant: str) -> dict[str, Any]:
        """Cancel one tenant of a shared-scan group.

        The merged dataflow keeps running for the remaining tenants — a
        shared scan cannot be carved out of a live plan without touching
        the survivors' operator state, and the isolation guarantee is
        precisely that cancelling one tenant never perturbs the others'
        output bytes. The cancelled tenant's matches are frozen at the
        last round boundary and served from the snapshot; when the last
        tenant cancels, the whole job does.
        """
        job = self._get(job_id)
        if tenant not in job.query_names:
            raise ServiceError(
                "unknown-tenant",
                f"job '{job.job_id}' has no query '{tenant}'",
                status=404,
            )
        with job.run_lock:  # freeze between rounds, never mid-round
            with job.cond:
                already = job.tenant_states.get(tenant) == "cancelled"
                if not already:
                    job.tenant_states[tenant] = "cancelled"
            if not already:
                job.frozen_matches[tenant] = job.match_keys(tenant)
        if all(
            job.tenant_states.get(name) == "cancelled" for name in job.query_names
        ):
            return self.cancel(job.job_id)
        self._persist_progress(job)
        return self.job_status(job.job_id)

    # -- ingestion ---------------------------------------------------------

    def ingest_event(
        self,
        event: Event,
        source: str | None = None,
        seq: int | None = None,
    ) -> dict[str, Any]:
        """:meth:`ingest_events` of one in-process event; its WAL record
        is rendered from the event (a producer's line is recorded as
        sent)."""
        line = None
        if self.state is not None:
            line = json.dumps(event_to_wire(event, source, seq), sort_keys=True)
        return self.ingest_events([(event, source, seq, line)])[0]

    def ingest_events(
        self,
        items: list[tuple[Event, str | None, int | None, str | None]],
    ) -> list[dict[str, Any]]:
        """Route a run of ``(event, source, seq, line)`` to every running
        job that scans each event's type, as one group commit; returns
        one outcome per item, in order.

        ``line`` is the event's wire line (one JSON object, no newline;
        only read in durable mode). Dedup, routing and admission decide
        per event exactly as one event at a time would. Then every
        accepted event's WAL record goes down in one append, and each
        job's events reach its queue in one step, after that append.
        With a durable state root the whole run holds the ingestion
        lock: the WAL's record order *is* every job's log order (which
        replay after a restart depends on), and the dedup horizon never
        advances past the durable tail — a tracker snapshot taken
        between an admit and its WAL record could otherwise drop a
        producer's re-send of an event the restart lost.
        """
        if self.state is None:
            return self._ingest(items)
        with self._ingest_lock:
            return self._ingest(items)

    def _ingest(
        self, items: list[tuple[Event, str | None, int | None, str | None]]
    ) -> list[dict[str, Any]]:
        outcomes: list[dict[str, Any]] = []
        targets_of: dict[str, list[Job]] = {}
        jobs = list(self.jobs.values())
        records: list[tuple[str, list[str]]] = []
        staged: dict[str, list[Event]] = {job.job_id: [] for job in jobs}
        refused: Counter[tuple[str, str]] = Counter()  # (job id, what) -> events

        def commit() -> None:
            # One append covers the run's routing sets: an event is
            # durable for all of its jobs or for none of them. The events
            # reach the queues only after, so a round never cuts past
            # the WAL.
            try:
                if records:
                    self.state.append_wal(records)
            finally:
                records.clear()
                ready = False
                for job in jobs:
                    events = staged[job.job_id]
                    if events:
                        ready = job.publish(events) or ready
                        events.clear()
                if ready:
                    self.kick()

        try:
            for event, source, seq, line in items:
                if not self.tracker.check(source, seq):
                    outcomes.append({"accepted": 0, "duplicate": True})
                    continue
                targets = targets_of.get(event.event_type)
                if targets is None:
                    targets = targets_of[event.event_type] = [
                        job for job in jobs if event.event_type in job.event_types
                    ]
                if not targets:
                    self.tracker.advance(source, seq)
                    self.unrouted += 1  # lint: unguarded — a monotonic stat counter
                    outcomes.append({"accepted": 0, "unrouted": True})
                    continue
                outcome: dict[str, Any] = {"accepted": 0}
                outcomes.append(outcome)
                routed_ids: list[str] = []
                for job in targets:
                    reason = job.admit(draining=self.draining)
                    if reason == "queue-full" and staged[job.job_id]:
                        # The run's own unpublished events fill the queue:
                        # publish them, as one event at a time would have,
                        # so the worker can free room, and ask again.
                        commit()
                        reason = job.admit(draining=self.draining)
                    if reason == "queue-full" and job.config.admission == "block":
                        # Wait holding no reservation: two runs must not
                        # each wait on room the other's events hold.
                        commit()
                        refused[job.job_id, "blocked"] += 1
                        reason = job.await_room()
                    if reason is None:
                        routed_ids.append(job.job_id)
                        staged[job.job_id].append(event)
                        continue
                    refused[job.job_id, f"rejected ({reason})"] += 1
                    rejection = {"job": job.job_id, "reason": reason}
                    if reason == "queue-full":
                        job.rejected.inc()
                        rejection["retry_after_ms"] = job.config.retry_after_ms
                    outcome.setdefault("rejections", []).append(rejection)
                if routed_ids:
                    # Only a taken event moves the horizon: a rejected
                    # one's retry must not read as a duplicate.
                    self.tracker.advance(source, seq)
                    outcome["accepted"] = len(routed_ids)
                    if self.state is not None:
                        records.append((line, routed_ids))
        finally:
            commit()
        for (job_id, what), count in refused.items():
            log.debug("%s: %d of an ingest run's %d events %s", job_id, count,
                      len(items), what)
        return outcomes

    def heartbeat(self, source: str | None, ts: int) -> None:
        """A producer watermark: record it and ask every job for a cut.

        Durable mode snapshots the tracker under the ingestion lock so
        the persisted dedup horizon is consistent with the WAL tail.
        """
        if self.state is not None:
            with self._ingest_lock:
                self.tracker.heartbeat(source, ts)
                self.state.write_tracker(self.tracker.snapshot())
        else:
            self.tracker.heartbeat(source, ts)
        self.flush_all()

    def flush_all(self) -> None:
        for job in list(self.jobs.values()):
            with job.cond:
                if job.state == JobState.RUNNING:
                    job.flush_requested = True
        self.kick()

    def flush(self, job_id: str) -> None:
        """Ask for a round of whatever is queued and a cut behind it."""
        job = self._get(job_id)
        with job.cond:
            job.flush_requested = True
        self.kick()

    def kick(self) -> None:
        """Wake the worker: a queue went non-empty or a flush was asked."""
        with self._wake:
            self._kicked = True
            self._wake.notify_all()

    # -- the worker --------------------------------------------------------

    def _worker_loop(self) -> None:
        """A round for every job that wants one, one per job per pass (no
        job starves another); sleep only after a pass that found none.
        Whoever asks for a round changes the job, then kicks."""
        while not self._stop.is_set():
            with self._wake:
                self._kicked = False
            ran = False
            for job in list(self.jobs.values()):
                if job.wants_round():
                    self.run_round(job, cut=False)
                    ran = True
            if not ran:
                with self._wake:
                    if not self._kicked:
                        self._wake.wait(timeout=_IDLE_WAIT_S)

    def run_round(
        self, job: Job, terminal: bool = False, cut: bool = True
    ) -> RunResult | None:
        """Drain the queue and process the new log suffix as one round.

        It ends in a checkpoint when ``cut`` (the worker passes False), a
        flush was requested, it is terminal, or the job is sharded (its
        lanes rebuild from the cut every round) — and such a cut is taken
        even when nothing is new. Otherwise the lanes stand past their cut.
        """
        with job.run_lock:
            waited, flush = job.drain_queue()
            cut = cut or flush or terminal or job.shards is not None
            new_events = len(job.log) - job.events_processed
            if new_events == 0 and not terminal:
                if cut:
                    for lane in job.lanes:
                        lane.cut()
                    self._persist_progress(job)
                return None
            if waited is not None:
                job.trigger_latency_ms.observe(waited)
            job.events_per_round.observe(new_events)
            started = time.perf_counter()
            flow = job.compiled.env.flow

            def pulled() -> int:
                return sum(node.source.emitted for node in flow.source_nodes())

            read_before = pulled()
            try:
                result = job.runner.run_round(
                    flow,
                    job.settings,
                    job.lanes,
                    job.record_restart,
                    terminal=terminal,
                    cut=cut,
                )
            except ExecutionError as exc:  # a lane whose journal is short of its cut
                with job.cond:
                    job.state = JobState.FAILED
                    job.failure = str(exc)
            read = pulled() - read_before
            job.events_read.inc(read)
            log.debug(
                "%s: round %d (%s) read %d events, %s", job.job_id, job.rounds + 1,
                "terminal" if terminal else "flush" if flush else "input",
                read, "cut" if cut else "no cut",
            )
            if job.state == JobState.FAILED:
                # The restart budget died mid-round.
                self._persist_progress(job)
                return None
            job.events_processed = result.events_in
            job.rounds += 1
            job.items_out = result.items_out
            job.wall_seconds += result.wall_seconds
            job.peak_state_bytes = max(job.peak_state_bytes, result.peak_state_bytes)
            job.work_units += result.work_units
            job.round_duration_ms.observe((time.perf_counter() - started) * 1000.0)
            add_operator_records(job.operator_records, result.operator_records)
            if result.failed:
                with job.cond:
                    job.state = JobState.FAILED
                    job.failure = result.failure
            if cut or result.failed:  # what a new process starts from moves with the cuts
                self._persist_progress(job)
            return result

    # -- drain / shutdown --------------------------------------------------

    def drain(self) -> dict[str, Any]:
        """Graceful drain: stop admitting, flush and checkpoint every job.

        Every running job gets a final *terminal* round — queued events
        processed, windows flushed by the terminal watermark, state
        checkpointed — then moves to ``drained``. The server stays up to
        serve results until shutdown.
        """
        self.draining = True
        drained = []
        for job in list(self.jobs.values()):
            if job.state != JobState.RUNNING:
                continue
            self.run_round(job, terminal=True)
            if job.state == JobState.RUNNING:
                with job.cond:
                    job.state = JobState.DRAINED
                    job.cond.notify_all()
            self._persist_progress(job)
            drained.append(job.job_id)
        if self.state is not None:
            with self._ingest_lock:
                self.state.write_tracker(self.tracker.snapshot())
        return {"drained": drained}

    # -- read endpoints ----------------------------------------------------

    def list_jobs(self) -> list[dict[str, Any]]:
        return [self.job_status(job_id) for job_id in sorted(self.jobs)]

    def job_status(self, job_id: str) -> dict[str, Any]:
        job = self._get(job_id)
        sharing = job.compiled.sharing
        return {
            "id": job.job_id,
            "name": job.name,
            "state": job.state,
            "failure": job.failure,
            "queries": list(job.query_names),
            "shared_scans": job.compiled.num_shared_scans,
            "sharing": sharing.as_dict() if sharing is not None else None,
            "event_types": sorted(job.event_types),
            "admission": job.config.admission,
            "queue_limit": job.config.queue_limit,
            "queue_depth": job.pending,
            "events_logged": len(job.log),
            "events_processed": job.events_processed,
            "rounds": job.rounds,
            "restarts": len(job.restarts),
            "backend": job.backend,
            "shards": job.shards,
            "tenants": dict(job.tenant_states),
            "matches": {name: job.match_count(name) for name in job.query_names},
        }

    def job_metrics(self, job_id: str) -> dict[str, Any]:
        """The job's ``repro.metrics/v1`` report + service section."""
        job = self._get(job_id)
        with job.run_lock:
            queries = job.compiled.queries

            def per_query(view: Any) -> Any:
                """One query's view as is; a group's keyed by query name."""
                if len(queries) == 1:
                    return view(queries[0])
                return {
                    "queries": {
                        name: view(query)
                        for name, query in zip(job.query_names, queries)
                    }
                }

            result = RunResult(
                job_name=job.name,
                events_in=job.events_processed,
                items_out=job.items_out,
                wall_seconds=job.wall_seconds,
                peak_state_bytes=job.peak_state_bytes,
                work_units=job.work_units,
                failed=job.state == JobState.FAILED,
                failure=job.failure,
                operator_records=job.operator_records,
                metrics={
                    "plan": per_query(lambda q: q.plan.summary()),
                    # What the submit-time verifier said (warnings such
                    # as RA304 included), as `repro run --metrics-json`.
                    "analysis": per_query(lambda q: q.analysis.summary()),
                },
                metadata={"backend": "service-rounds"},
            )
            report = run_report(result)
            report["service"] = {
                "job": job.job_id,
                "name": job.name,
                "state": job.state,
                "admission": {
                    "policy": job.config.admission,
                    "queue_limit": job.config.queue_limit,
                    "retry_after_ms": job.config.retry_after_ms,
                },
                "ingress": job.registry.to_dict(),
                "rounds": job.rounds,
                "restarts": list(job.restarts),
                "backend": job.backend,
                "shards": job.shards,
                "tenants": dict(job.tenant_states),
                "checkpoints": checkpoint_metrics(job.lanes),
            }
        return report

    def job_checkpoints(self, job_id: str) -> dict[str, Any]:
        job = self._get(job_id)
        with job.run_lock:
            # Sharded jobs keep checkpoint-per-shard in scoped substores;
            # the job-level view aggregates them (entries tagged by shard).
            entries = []
            journals = []
            for lane in job.lanes:
                tag = {} if lane.shard is None else {"shard": lane.shard}
                chain = lane.store.checkpoints()
                entries += [
                    {"checkpoint_id": c.checkpoint_id, "offset": c.offset,
                     "size_bytes": c.size_bytes, **tag}
                    for c in chain
                ]
                # What the newest cut reads back, and the file it reads.
                newest = unpickle_payload(chain[-1].payload) if chain else {}
                journals.append({
                    "journal_items": sum(newest.get("journalled", {}).values()),
                    "journal_bytes": lane.store.output_bytes(),
                    **tag,
                })
            return {
                "job": job.job_id,
                "backend": job.backend,
                "coordinator": checkpoint_metrics(job.lanes),
                "entries": entries,
                "lanes": journals,
                "durable": isinstance(
                    job.lanes[0].store, DirectoryCheckpointStore
                ),
            }

    def job_matches(self, job_id: str) -> dict[str, Any]:
        """Canonical match output per query (sorted dedup keys).

        The key list joined with newlines is byte-identical to
        :func:`repro.asp.runtime.fault.chaos.canonical_match_bytes` of
        the same matches — the equivalence currency of the chaos gate.
        """
        job = self._get(job_id)
        with job.run_lock:
            queries = {}
            for name in job.query_names:
                keys = job.match_keys(name)
                queries[name] = {
                    "count": len(keys),
                    "keys": keys,
                    "tenant_state": job.tenant_states.get(name, "running"),
                }
            return {"job": job.job_id, "state": job.state, "queries": queries}

    def server_metrics(self) -> dict[str, Any]:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": len(self.jobs),
            "states": states,
            "draining": self.draining,
            "unrouted_events": self.unrouted,
            "ingest": self.tracker.as_dict(),
            "durable": self.state is not None,
            "resumed": self.resumed,
        }

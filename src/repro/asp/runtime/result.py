"""Run outcome records shared by every execution backend.

:class:`RunResult` is produced by one backend execution: the serial
backend fills it from a single depth-first run, the sharded backend
merges the shard-local results of its partitioned sub-jobs into one
(:func:`merge_shard_results`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.asp.runtime.observability.registry import merge_metric_trees


@dataclass
class RunResult:
    """Outcome of one job execution."""

    job_name: str
    events_in: int
    items_out: int
    wall_seconds: float
    peak_state_bytes: int
    work_units: int
    failed: bool = False
    failure: str | None = None
    samples: list[dict[str, Any]] = field(default_factory=list)
    #: Exclusive busy seconds per operator (stage), measured around each
    #: process/on_watermark call. Sharded runs qualify stage names with
    #: their shard index (``join#3@s1``).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Backend-specific annotations: backend name, shard count, channel
    #: frame counters, measured shard makespan, ...
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Typed per-operator metric tree (see
    #: :mod:`repro.asp.runtime.observability`): ``{"operators": {scope:
    #: {metric: typed dict}}}``, plus ``"shards"`` views on sharded runs.
    #: Only a run that ends the stream or fails carries ``"operators"``;
    #: a served job renders its tree on read
    #: (:meth:`~repro.asp.runtime.backends.serial.SerialJob.operator_tree`).
    #: Serializable to JSON via
    #: :func:`repro.asp.runtime.observability.report.run_report`.
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def serial_throughput_tps(self) -> float:
        """Single-thread processing rate (all stages serialized)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_in / self.wall_seconds

    @property
    def pipeline_seconds(self) -> float:
        """Wall time under pipeline (and, when sharded, key) parallelism.

        In an ASPS every operator runs as its own task (paper Section 2,
        processing model); a pipelined job is bounded by its busiest
        stage. The serial backend runs stages one after another and
        measures each stage's exclusive busy time; the pipelined duration
        is the maximum stage time, with the residual (source merge,
        framework) counted as one more stage. FCEP concentrates its work
        in the single CEP operator, so its pipelined and serial durations
        nearly coincide — which is precisely the decomposition argument
        of the paper.

        A sharded run is additionally bounded by its slowest shard: the
        backend records the measured makespan (max over shards of the
        shard's own pipelined duration) in ``metadata`` and it takes
        precedence here, exactly like a worker in the paper's cluster
        finishing with its slowest task slot.
        """
        makespan = self.metadata.get("makespan_seconds")
        if makespan is not None:
            return max(float(makespan), 1e-9)
        if not self.stage_seconds:
            return self.wall_seconds
        busiest = max(self.stage_seconds.values())
        residual = max(0.0, self.wall_seconds - sum(self.stage_seconds.values()))
        return max(busiest, residual, 1e-9)

    @property
    def throughput_tps(self) -> float:
        """Sustainable tuples/second of the pipelined job — the paper's
        primary metric."""
        return self.events_in / self.pipeline_seconds if self.events_in else 0.0


def merge_shard_results(
    job_name: str,
    results: Sequence[RunResult],
    wall_seconds: float,
    *,
    shards: int,
    key_attribute: str,
) -> RunResult:
    """Fold shard-local results into one job-level :class:`RunResult`.

    Events, emitted items and work units add up across shards. Peak state
    adds up as well — shards run concurrently, so their buffers coexist
    (the per-worker accounting of the paper's cluster). Stage times keep
    per-shard identity (``stage@sN``) so the busiest stage of the busiest
    shard stays visible, and the measured makespan — the slowest shard's
    pipelined duration — is recorded in ``metadata`` where
    :attr:`RunResult.pipeline_seconds` picks it up.
    """
    merged_samples: list[dict[str, Any]] = []
    stage_seconds: dict[str, float] = {}
    failures: list[str] = []
    for index, result in enumerate(results):
        for stage, seconds in result.stage_seconds.items():
            stage_seconds[f"{stage}@s{index}"] = seconds
        for sample in result.samples:
            merged_samples.append({**sample, "shard": index})
        if result.failed:
            failures.append(f"shard {index}: {result.failure}")
    shard_pipeline = [r.pipeline_seconds for r in results]
    shard_trees = [result.metrics.get("operators") for result in results]
    # Operator scopes (name#node_id) are identical across shard clones,
    # so the per-shard trees roll up scope-by-scope: counters and
    # histogram buckets add, state gauges sum, watermark lag takes the
    # max. Both views are kept — the merged tree for job-level totals,
    # the per-shard trees for skew analysis — when every shard has one.
    metrics: dict[str, Any] = {}
    if all(tree is not None for tree in shard_trees):
        metrics["operators"] = merge_metric_trees(shard_trees)
        metrics["shards"] = [
            {"shard": index, "operators": tree} for index, tree in enumerate(shard_trees)
        ]
    return RunResult(
        job_name=job_name,
        events_in=sum(r.events_in for r in results),
        items_out=sum(r.items_out for r in results),
        wall_seconds=wall_seconds,
        peak_state_bytes=sum(r.peak_state_bytes for r in results),
        work_units=sum(r.work_units for r in results),
        failed=bool(failures),
        failure="; ".join(failures) or None,
        samples=merged_samples,
        stage_seconds=stage_seconds,
        metrics=metrics,
        metadata={
            "backend": "sharded",
            "shards": shards,
            "key_attribute": key_attribute,
            "makespan_seconds": max(shard_pipeline, default=0.0),
            "shard_pipeline_seconds": shard_pipeline,
            "shard_events_in": [r.events_in for r in results],
            "shard_work_units": [r.work_units for r in results],
        },
    )

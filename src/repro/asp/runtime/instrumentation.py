"""Cross-cutting run observation: busy time, sampling, budget checks.

Everything the old executor interleaved with data movement lives here,
behind one narrow surface:

* per-stage exclusive busy time (the pipeline-parallel throughput model
  — a pipelined job is bounded by its busiest stage);
* periodic metric sampling (state bytes / work units — Figure 5) into
  ``RunResult.samples``;
* state-budget enforcement (raises
  :class:`~repro.errors.MemoryExhaustedError`, the FCEP failure mode).

Busy time and samples are per run; the per-operator counts are totals of
the job (:mod:`~repro.asp.runtime.observability.operator_metrics`).

Budget checks ride two cadences — every watermark, so short runs with
fewer events than ``sample_every`` still observe state growth, and every
``sample_every`` events. Both cadences funnel through the single
:meth:`Instrumentation.after_event` check site, so an event that hits
both pays for one check, not two.
"""

from __future__ import annotations

from typing import Any

from repro.asp.graph import Dataflow
from repro.asp.runtime.clock import RuntimeClock
from repro.asp.runtime.observability import OperatorMetrics
from repro.asp.state import StateRegistry

#: How many events between budget checks / metric samples.
DEFAULT_SAMPLE_EVERY = 1_000


class Instrumentation:
    """Per-run measurement state for one backend execution."""

    def __init__(
        self,
        flow: Dataflow,
        registry: StateRegistry,
        *,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        clock: RuntimeClock | None = None,
    ):
        self.flow = flow
        self.registry = registry
        # All wall-clock reads of this run go through one clock, so
        # virtually-injected delays (slow-operator faults) appear
        # coherently in samples, busy time and latency percentiles.
        self._clock = clock or RuntimeClock()
        self.sample_every = max(1, sample_every)
        self.samples: list[dict[str, Any]] = []
        self._operator_nodes = flow.operator_nodes()
        #: Per-operator telemetry (busy time, events in/out, latency
        #: histogram), updated inline by the executing backend; a
        #: checkpoint carries all of it but the busy time.
        self.op_metrics: dict[int, OperatorMetrics] = {
            node.node_id: OperatorMetrics(
                f"{node.name}#{node.node_id}", node.operator.kind
            )
            for node in self._operator_nodes
        }
        self.budget_checks = 0
        self._started = self._clock.now()

    # -- busy time -------------------------------------------------------

    def start_run(self) -> float:
        """Open a run: empty samples, zero busy time, a new wall clock.
        The operator counts and the state peaks go on from where the job
        stands."""
        self.samples = []
        self.budget_checks = 0
        for metrics in self.op_metrics.values():
            metrics.busy = 0.0
        self._started = self._clock.now()
        return self._started

    def stage_seconds(self) -> dict[str, float]:
        return {metrics.scope: metrics.busy for metrics in self.op_metrics.values()}

    # -- budget + sampling (the one check site) --------------------------

    def after_event(self, events_in: int, watermark_emitted: bool) -> None:
        """The check after each batch (``events_in`` is its last index):
        one budget check even when the watermark cadence and the
        sampling cadence coincide."""
        sample_due = events_in % self.sample_every == 0
        if watermark_emitted or sample_due:
            self._check_budget()
        if sample_due:
            self.take_sample(events_in)

    def finish(self, events_in: int) -> None:
        """Final checkpoint after the terminal watermark.

        Besides the last budget check this records a closing sample, so
        runs shorter than ``sample_every`` still produce at least one
        Figure-5 data point. A sample already taken at exactly this
        ``events_in`` (the cadence coinciding with the end) is not
        duplicated.
        """
        self._check_budget()
        if not self.samples or self.samples[-1]["events_in"] != events_in:
            self.take_sample(events_in)

    def _check_budget(self) -> None:
        self.budget_checks += 1
        self.registry.check_budget()

    def take_sample(self, events_in: int) -> dict[str, Any]:
        sample = {
            "wall_s": self._clock.now() - self._started,
            "events_in": events_in,
            "state_bytes": self.registry.total_bytes(),
            "state_items": self.registry.total_items(),
            "work_units": self.total_work_units(),
        }
        self.samples.append(sample)
        return sample

    def total_work_units(self) -> int:
        return sum(node.payload.work_units for node in self._operator_nodes)

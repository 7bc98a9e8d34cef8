"""Per-operator telemetry updated on the executor's hot path.

The backend (not the operator) counts events in/out and observes the
per-event processing latency, so every operator — stateless filters and
the monolithic CEP operator alike — reports the same core metrics
without touching its data path. Operators contribute their *specialized*
counters (pairs tested, windows fired, NFA matches) through
:meth:`~repro.asp.operators.base.Operator.collect_metrics`, which this
module reports beside them whenever the job's operator tree is read
(:meth:`~repro.asp.runtime.backends.serial.SerialJob.operator_tree`).

Every count is a total over the stream prefix the job has processed:
the backend's counts travel in the checkpoint next to the operator's
own state (:meth:`OperatorMetrics.snapshot`), so a restored job, a
crashed run's retry and a serve job's next round keep counting where
the stream stands. Only busy time is per run.
"""

from __future__ import annotations

from repro.asp.runtime.observability.registry import DEFAULT_LATENCY_BOUNDS, Histogram

#: The hot path observes the latency histogram for one event in
#: ``1 << LATENCY_SAMPLE_SHIFT`` (a uniform stride sample — unbiased for
#: percentiles, and it keeps per-hop overhead well under the cost of the
#: busy-time clock that was already there): a batch is timed when
#: ``events_in >> LATENCY_SAMPLE_SHIFT`` changes, fused or not, whatever
#: the batch size. Event counts stay exact.
LATENCY_SAMPLE_SHIFT = 3


class OperatorMetrics:
    """Live counters for one operator instance of one running job.

    The serial backend updates busy time, ``events_in``/``events_out``
    and the (stride-sampled) latency histogram inline — plain attribute
    increments, one struct lookup per hop; nothing copies them at the end
    of a run, the job's operator tree reads them when asked. The counts
    and the histogram are totals of the job; busy time is the current
    run's.
    """

    __slots__ = ("scope", "kind", "busy", "events_in", "events_out", "watermark_calls", "latency")

    def __init__(self, scope: str, kind: str):
        self.scope = scope
        self.kind = kind
        self.busy = 0.0
        self.events_in = 0
        self.events_out = 0
        self.watermark_calls = 0
        self.latency = Histogram(DEFAULT_LATENCY_BOUNDS)

    def snapshot(self) -> list:
        """The counts a checkpoint carries, as plain numbers."""
        h = self.latency
        counts = [self.events_in, self.events_out, self.watermark_calls]
        return counts + [list(h.counts), h.count, h.total, h.vmin, h.vmax]

    def restore(self, snapshot: list) -> None:
        h = self.latency
        self.events_in, self.events_out, self.watermark_calls = snapshot[:3]
        counts, h.count, h.total, h.vmin, h.vmax = snapshot[3:]
        h.counts = list(counts)

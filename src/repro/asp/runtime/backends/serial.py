"""Serial backend: the depth-first push semantics, kept as reference.

Drives a :class:`~repro.asp.graph.Dataflow` on the calling thread:
source events are merged by event time across all sources, cut into
micro-batches, pushed through the operator DAG depth-first over the
job's channels, and interleaved with watermarks from the scheduler's
watermark service.

Watermarks are propagated in topological order so that an upstream join
fires its complete windows *before* a downstream join finalizes the same
watermark — this is what makes nested SEQ(n) pipelines correct. The
sharded backend runs one serial job per shard, so this module is the
correctness reference for every backend.

Fault tolerance hooks: between two batches the push graph is fully
drained, so that point is a consistent cut — the
:class:`~repro.asp.runtime.fault.checkpoint.CheckpointCoordinator`
snapshots there, and a :class:`~repro.asp.runtime.fault.injection
.FaultInjector` crashes there (plus virtual slow-operator delays and
severed channels on the data path). A run starts after the job's
``events_in`` — 0 on a fresh job, a restored checkpoint's offset, or
where the job's previous run stopped.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from repro.asp.graph import Dataflow
from repro.asp.operators.base import Operator
from repro.asp.runtime.backends.base import ExecutionSettings
from repro.asp.runtime.channels import Channel, build_channels, channel_totals
from repro.asp.runtime.clock import RuntimeClock
from repro.asp.runtime.fusion import build_fused_segments
from repro.asp.runtime.instrumentation import Instrumentation
from repro.asp.runtime.observability import LATENCY_SAMPLE_SHIFT
from repro.asp.runtime.result import RunResult
from repro.asp.runtime.scheduler import WatermarkService, merge_batches
from repro.asp.state import StateRegistry
from repro.asp.time import Watermark
from repro.errors import ExecutionError, InjectedFaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.runtime.fault.checkpoint import CheckpointCoordinator
    from repro.asp.runtime.fault.injection import FaultInjector
    from repro.asp.runtime.fault.recovery import CrashHandler, Lane


class SerialJob:
    """One prepared execution: flow + scheduler + channels + probes.

    Construction validates the flow, binds operator state to the job's
    registry and wires the event clock; :meth:`run` is then a pure drive
    loop over micro-batches of up to ``batch_size`` events (a batch of
    one is a batch). A job whose run withheld the terminal watermark can
    run again: it continues the same logical stream with whatever its
    sources have gained since, and its counts go on from where they stood.
    Its per-operator metric tree is rendered from the live counters when
    asked (:meth:`operator_tree`); a run renders it only when it ends the
    stream or fails.
    """

    def __init__(
        self,
        flow: Dataflow,
        settings: ExecutionSettings,
        *,
        injector: "FaultInjector | None" = None,
        coordinator: "CheckpointCoordinator | None" = None,
        clock: RuntimeClock | None = None,
    ):
        flow.validate()
        self.flow = flow
        self.settings = settings
        self.clock = clock or RuntimeClock()
        self.registry = StateRegistry(budget_bytes=settings.memory_budget_bytes)
        self.watermarks = WatermarkService(
            flow,
            max_out_of_orderness=settings.max_out_of_orderness,
            emit_interval=settings.watermark_interval,
        )
        self.instrumentation = Instrumentation(
            flow,
            self.registry,
            sample_every=settings.sample_every,
            clock=self.clock,
        )
        self.channels: dict[int, list[Channel]] = build_channels(flow)
        for node in flow.operator_nodes():
            node.operator.setup(self.registry)
            if hasattr(node.operator, "set_event_clock"):
                node.operator.set_event_clock(self.watermarks.current_max_ts)
            if hasattr(node.operator, "set_wall_clock"):
                node.operator.set_wall_clock(self.clock.now)
        self.injector = injector
        self.coordinator = coordinator
        self._node_delays: dict[int, float] = (
            injector.node_delays(flow) if injector is not None else {}
        )
        self._dropped: set[tuple[int, int]] = (
            injector.dropped_edges(flow) if injector is not None else set()
        )
        #: Operators that inherit the base no-op ``on_watermark``. The
        #: broadcast skips calling them (watermark frames and the call
        #: counter are still accounted).
        self._wm_transparent: set[int] = {
            node.node_id
            for node in flow.operator_nodes()
            if type(node.operator).on_watermark is Operator.on_watermark
        }
        #: head node id -> compiled stateless chain (fusion overlay; the
        #: flow graph itself is never rewritten). Operators with injected
        #: slow delays and severed interior channels never fuse — their
        #: effects are applied on the unfused path.
        self._segments = build_fused_segments(
            flow,
            self.instrumentation.op_metrics,
            self.channels,
            self.clock,
            exclude_nodes=frozenset(self._node_delays),
            exclude_edges=frozenset(self._dropped),
        )
        #: node id -> what one hop into it needs: ``(process_batch,
        #: metrics, out channels, fused segment or None)``. A fused head's
        #: entry runs its whole chain and leaves by the tail's channels.
        self._hops: dict[int, tuple] = {
            node.node_id: (
                node.operator.process_batch,
                self.instrumentation.op_metrics[node.node_id],
                self.channels[node.node_id],
                None,
            )
            for node in flow.operator_nodes()
        }
        for head_id, segment in self._segments.items():
            self._hops[head_id] = (
                segment.process_batch, None, self.channels[segment.tail_id], segment
            )
        #: The flow's source nodes, and whether the merge may group their
        #: events by watermark window (see ``merge_batches``): one source,
        #: or every operator ``reorder_safe``. Both hold for the job's life.
        self._sources = flow.source_nodes()
        self._by_window = len(self._sources) == 1 or all(
            node.operator.reorder_safe for node in flow.operator_nodes()
        )
        #: Merged-stream index of the last source event consumed; a run
        #: starts after it.
        self.events_in = 0
        self.items_out = 0

    # -- data propagation --------------------------------------------------

    def _push_batch(self, node_id: int, items, port: int) -> None:
        """Deliver a micro-batch to ``node_id`` and walk downstream.

        One ``process_batch`` dispatch, one metrics update and one
        channel frame per batch per hop; linear segments are walked
        iteratively, fan-out recurses. Fused segments collapse whole
        stateless chains into a single timed call. The latency histogram
        keeps its per-event stride — a batch contributes its mean
        per-item latency whenever the ``events_in`` counter crosses a
        sample-stride boundary. Callers skip severed channels.
        """
        hops = self._hops
        delays = self._node_delays
        # Only an injected delay advances the clock, so without one a hop
        # is timed on the raw counter (the clock's offset cancels out).
        now = self.clock.now if delays else perf_counter
        dropped = self._dropped
        while True:
            process, metrics, outs, segment = hops[node_id]
            start = now()
            outputs = process(items, port)
            if segment is not None:
                segment.busy += now() - start
                node_id = segment.tail_id
                if not outputs:
                    return
            else:
                if delays:
                    delay = delays.get(node_id)
                    if delay:
                        self.clock.advance(delay * len(items))
                elapsed = now() - start
                metrics.busy += elapsed
                before = metrics.events_in
                metrics.events_in = after = before + len(items)
                if before >> LATENCY_SAMPLE_SHIFT != after >> LATENCY_SAMPLE_SHIFT:
                    metrics.latency.observe(elapsed / len(items))
                if not outputs:
                    return
                metrics.events_out += len(outputs)
            if not outs:
                self.items_out += len(outputs)
                return
            if len(outs) == 1:
                channel = outs[0]
                node_id = channel.target_id
                if dropped and (channel.source_id, node_id) in dropped:
                    return
                channel.frame_items(len(outputs))
                items = outputs
                port = channel.port
                continue
            for channel in outs:
                if dropped and (channel.source_id, channel.target_id) in dropped:
                    continue
                channel.frame_items(len(outputs))
                self._push_batch(channel.target_id, outputs, channel.port)
            return

    def _broadcast_watermark(self, watermark: Watermark) -> None:
        """Advance event time on all operators in topological order.

        Items emitted by an operator's window firing are pushed downstream
        immediately, so downstream operators buffer them *before* their
        own ``on_watermark`` call later in the same topological sweep.
        """
        op_metrics = self.instrumentation.op_metrics
        clock = self.clock
        transparent = self._wm_transparent
        for node in self.watermarks.topo:
            if node.is_source:
                for channel in self.channels[node.node_id]:
                    channel.frame_watermark()
                continue
            if node.node_id in transparent:
                # Base-class no-op: skip the localize + call, still count
                # the frames and the call.
                op_metrics[node.node_id].watermark_calls += 1
                for channel in self.channels[node.node_id]:
                    channel.frame_watermark()
                continue
            local = self.watermarks.localize(node.node_id, watermark)
            start = clock.now()
            outputs = node.operator.on_watermark(local)
            metrics = op_metrics[node.node_id]
            metrics.busy += clock.now() - start
            metrics.watermark_calls += 1
            outs = self.channels[node.node_id]
            for channel in outs:
                channel.frame_watermark()
            if not outputs:
                continue
            outputs = list(outputs)
            metrics.events_out += len(outputs)
            if not outs:
                self.items_out += len(outputs)
                continue
            for channel in outs:
                if self._dropped and (node.node_id, channel.target_id) in self._dropped:
                    continue
                channel.frame_items(len(outputs))
                self._push_batch(channel.target_id, outputs, channel.port)

    # -- run loop ----------------------------------------------------------

    def run(self, terminal_watermark: bool = True) -> RunResult:
        """Drive the job to source exhaustion.

        ``terminal_watermark=False`` skips the closing terminal watermark:
        open windows stay buffered instead of firing, so a later run can
        restore this job's checkpoint and continue the *same* logical
        stream (the ``repro serve`` incremental-round path). Batch runs
        keep the default and flush everything.
        """
        instr = self.instrumentation
        started = instr.start_run()
        for group in self.channels.values():
            for channel in group:
                channel.reset()
        failed = False
        failure: str | None = None
        try:
            self._drive_batched()
            if terminal_watermark:
                self._broadcast_watermark(Watermark.terminal())
            # Records the closing sample too, so short runs (fewer events
            # than sample_every) still yield a Figure-5 data point.
            instr.finish(self.events_in)
        except InjectedFaultError:
            # Simulated process crash — the recovery loop owns it.
            raise
        except ExecutionError as exc:
            failed = True
            failure = str(exc)
            instr.take_sample(self.events_in)  # capture the failure point
        wall = self.clock.now() - started
        return self._build_result(wall, failed, failure, terminal_watermark or failed)

    def _drive_batched(self) -> None:
        """The drive loop.

        Batches are same-source runs that never span a watermark
        emission; additional cuts force batch boundaries at exactly the
        indices where the job acts between events: sampling and
        checkpoint cadence multiples, and pending crash offsets (a crash
        at event K fires with the batch that *starts* at K, before any of
        its events flow — a consistent cut). How the stream is cut into
        batches changes no output and no counter.
        """
        instr = self.instrumentation
        injector = self.injector
        coordinator = self.coordinator
        cut_indices: list[int] = []
        if injector is not None:
            # The batch containing offset K must begin at K, so the
            # previous batch is cut at K - 1.
            cut_indices = [off - 1 for off in injector.pending_crash_offsets()]
        cut_intervals = [instr.sample_every]
        if coordinator is not None and coordinator.interval:
            cut_intervals.append(coordinator.interval)
        channels = self.channels
        dropped = self._dropped
        push = self._push_batch
        for node_id, events, watermark, last_index in merge_batches(
            self._sources,
            self.watermarks,
            by_window=self._by_window,
            batch_size=self.settings.batch_size,
            start_offset=self.events_in,
            cut_indices=cut_indices,
            cut_intervals=cut_intervals,
        ):
            if injector is not None:
                self.events_in = first_index = last_index - len(events) + 1
                injector.before_batch(first_index, last_index)
            self.events_in = last_index
            for channel in channels[node_id]:
                if dropped and (node_id, channel.target_id) in dropped:
                    continue
                channel.frame_items(len(events))
                push(channel.target_id, events, channel.port)
            if watermark is not None:
                self._broadcast_watermark(watermark)
            instr.after_event(last_index, watermark is not None)
            if coordinator is not None and coordinator.due(last_index):
                coordinator.take(self)

    def operator_tree(self) -> dict[str, Any]:
        """The per-operator typed metric tree, read off the live counters.

        Keys are ``name#node_id`` scopes — stable across shard clones (the
        sharded backend deep-copies the graph, preserving node ids), which
        is what makes per-shard trees roll up scope by scope. Every count
        is a total of the job.
        """
        delays = self.watermarks.delays
        op_metrics = self.instrumentation.op_metrics
        tree: dict[str, Any] = {}
        for node in self.flow.operator_nodes():
            op, metrics = node.operator, op_metrics[node.node_id]
            # Shards run concurrently, so their state sizes coexist: the
            # gauges sum, like the job-level peak_state_bytes does.
            tree[metrics.scope] = {
                "kind": metrics.kind,
                "events_in": {"type": "counter", "value": metrics.events_in},
                "events_out": {"type": "counter", "value": metrics.events_out},
                "watermark_calls": {"type": "counter", "value": metrics.watermark_calls},
                "latency_s": metrics.latency.to_dict(),
                "state_bytes": {"type": "gauge", "value": op.state_size_bytes(), "agg": "sum"},
                "state_items": {"type": "gauge", "value": op.state_items(), "agg": "sum"},
                "state_peak_bytes": {"type": "gauge", "value": op.state_peak_bytes(), "agg": "sum"},
                "state_peak_items": {"type": "gauge", "value": op.state_peak_items(), "agg": "sum"},
                "watermark_lag_ms": {
                    "type": "gauge", "value": delays.get(node.node_id, 0), "agg": "max",
                },
                **{
                    name: {"type": "counter", "value": value}
                    for name, value in op.collect_metrics().items()
                },
            }
        return tree

    def _build_result(
        self, wall: float, failed: bool, failure: str | None, tree: bool
    ) -> RunResult:
        # Fused segments carry whole-segment busy time; fold it back into
        # the per-stage metrics (idempotent).
        for segment in self._segments.values():
            segment.finalize_metrics()
        instr = self.instrumentation
        return RunResult(
            job_name=self.flow.name,
            events_in=self.events_in,
            items_out=self.items_out,
            wall_seconds=wall,
            peak_state_bytes=self.registry.peak_bytes,
            work_units=instr.total_work_units(),
            failed=failed,
            failure=failure,
            samples=instr.samples,
            stage_seconds=instr.stage_seconds(),
            metrics={"operators": self.operator_tree()} if tree else {},
            metadata={
                "backend": "serial",
                "channels": channel_totals(self.channels),
                "batch_size": self.settings.batch_size,
                "fused_segments": sorted(s.name for s in self._segments.values()),
            },
        )

    def to_failed_result(self, failure: str) -> RunResult:
        """A failed :class:`RunResult` for a crash the recovery loop gave
        up on (restart budget exhausted)."""
        wall = self.clock.now() - self.instrumentation._started
        return self._build_result(wall, True, failure, True)


class SerialBackend:
    """Today's chained depth-first semantics — the correctness reference."""

    name = "serial"
    #: One lane, no key split.
    shards: int | None = None

    def execute(self, flow: Dataflow, settings: ExecutionSettings) -> RunResult:
        from repro.asp.runtime.fault.recovery import execute_round

        return execute_round(self, flow, settings)

    def run_round(
        self,
        flow: Dataflow,
        settings: ExecutionSettings,
        lanes: "Sequence[Lane] | None",
        on_crash: "CrashHandler",
        *,
        terminal: bool = True,
        cut: bool = False,
    ) -> RunResult:
        """One round of ``flow`` on its single lane (none: a plain run)."""
        from repro.asp.runtime.fault.recovery import run_lane

        lane = lanes[0] if lanes else None
        return run_lane(flow, settings, lane, on_crash, terminal=terminal, cut=cut)

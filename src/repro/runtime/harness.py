"""Experiment harness: run one pattern as FCEP or FASP on shared sources.

This is the paper's comparison methodology (Section 5.1.2) in library
form: identical source and sink functions for every pattern-query pair,
the FCEP side as union-of-streams + unary NFA operator, the FASP side as
the mapped multi-operator query, measured on the same executor.

Every run returns a :class:`ThroughputMeasurement`. Scale-out is the
``backend`` argument: a :class:`~repro.asp.runtime.ShardedBackend`
splits the keyed plan into per-shard subgraphs, runs them, and reports
the measured makespan (slowest shard).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.asp.datamodel import Event
from repro.asp.runtime import RunResult
from repro.asp.operators.sink import CollectSink, DiscardSink, Sink
from repro.asp.operators.source import ListSource
from repro.asp.stream import StreamEnvironment
from repro.cep.operator import CepOperator
from repro.cep.pattern_api import from_sea_pattern
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.translator import translate
from repro.runtime.metrics import ThroughputMeasurement
from repro.sea.ast import Pattern

Streams = Mapping[str, Sequence[Event]]


def _sources_of(streams: Streams) -> dict[str, ListSource]:
    return {
        name: ListSource(list(events), name=f"src[{name}]", event_type=name)
        for name, events in streams.items()
    }


#: Target number of watermark broadcasts per run. Flink emits watermarks
#: on a processing-time cadence (200 ms default), so a high-throughput
#: run sees few watermarks relative to events; firing one per event-time
#: slide would grossly overstate windowing overhead.
_WATERMARK_BROADCASTS = 256


def _watermark_interval(pattern: Pattern, streams: Streams) -> int:
    span = 0
    for events in streams.values():
        if events:
            span = max(span, events[-1].ts - events[0].ts)
    return max(pattern.window.slide, span // _WATERMARK_BROADCASTS)


def run_fcep(
    pattern: Pattern,
    streams: Streams,
    key_attribute: str | None = None,
    memory_budget_bytes: int | None = None,
    collect: bool = False,
    sample_every: int = 1_000,
    sink: Sink | None = None,
    backend=None,
) -> tuple[ThroughputMeasurement, Sink, RunResult]:
    """Run the pattern FlinkCEP-style: union all streams into one unary
    CEP operator (Section 5.1.2).

    A sharded ``backend`` requires ``key_attribute`` — an unkeyed NFA
    holds cross-key state and the backend will refuse the plan.
    """
    cep_pattern = from_sea_pattern(pattern)
    env = StreamEnvironment(name=f"{pattern.name}[FCEP]")
    handles = [env.add_source(src) for src in _sources_of(streams).values()]
    unioned = handles[0] if len(handles) == 1 else handles[0].union(*handles[1:])
    key_fn = None
    if key_attribute is not None:
        attribute = key_attribute

        def key_fn(event: Event, _attr: str = attribute):
            return event[_attr]

    cep_handle = unioned.transform(CepOperator(cep_pattern, key_fn=key_fn))
    if sink is None:
        sink = CollectSink() if collect else DiscardSink()
    sink = cep_handle.sink(sink)
    result = env.execute(
        memory_budget_bytes=memory_budget_bytes,
        watermark_interval=_watermark_interval(pattern, streams),
        sample_every=sample_every,
        backend=backend,
    )
    measurement = ThroughputMeasurement.from_run(
        "FCEP", pattern.name, result, matches=sink.count
    )
    return measurement, sink, result


def run_fasp(
    pattern: Pattern,
    streams: Streams,
    options: TranslationOptions | None = None,
    memory_budget_bytes: int | None = None,
    collect: bool = False,
    sample_every: int = 1_000,
    sink: Sink | None = None,
    backend=None,
    checkpoint_interval: int | None = None,
    fault_plan=None,
    translate_kwargs: dict | None = None,
) -> tuple[ThroughputMeasurement, Sink, RunResult]:
    """Run the pattern through the CEP-to-ASP mapping.

    A sharded ``backend`` requires O3 (``partition_attribute``) so that
    every stateful operator in the mapped plan is keyed.
    ``translate_kwargs`` passes extra arguments through to
    :func:`~repro.mapping.translator.translate` — e.g. ``optimize`` /
    ``cost_model`` to measure the plan optimizer's effect.
    """
    options = options or TranslationOptions()
    query = translate(
        pattern, _sources_of(streams), options, **(translate_kwargs or {})
    )
    if sink is None:
        sink = CollectSink() if collect else DiscardSink()
    sink = query.attach_sink(sink)
    result = query.execute(
        memory_budget_bytes=memory_budget_bytes,
        watermark_interval=_watermark_interval(pattern, streams),
        sample_every=sample_every,
        backend=backend,
        checkpoint_interval=checkpoint_interval,
        fault_plan=fault_plan,
    )
    measurement = ThroughputMeasurement.from_run(
        options.label(), pattern.name, result, matches=sink.count
    )
    return measurement, sink, result


"""Analytical Stream Processing engine (substrate 1).

A from-scratch, push-based dataflow engine with event-time processing,
explicit windowing, window joins (sliding and interval), aggregations,
and state accounting — the ASPS the paper's mapping targets.
"""

from repro.asp.datamodel import (
    Attribute,
    ComplexEvent,
    Event,
    EventTypeInfo,
    Schema,
    TypeRegistry,
    merge_events,
)
from repro.asp.operators.dedup import DedupOperator
from repro.asp.operators.multiway import MultiWayWindowJoin
from repro.asp.graph import Dataflow, linear_pipeline
from repro.asp.operators.window import (
    IntervalBounds,
    SlidingWindowAssigner,
    TumblingWindowAssigner,
    WindowSpec,
    sliding,
    tumbling,
)
from repro.asp.runtime import RunResult, run_dataflow
from repro.asp.stream import StreamEnvironment, StreamHandle
from repro.asp.time import (
    MS_PER_MINUTE,
    MS_PER_SECOND,
    TimeInterval,
    Watermark,
    WatermarkGenerator,
    hours,
    minutes,
    seconds,
)

__all__ = [
    "Attribute",
    "ComplexEvent",
    "Dataflow",
    "DedupOperator",
    "Event",
    "EventTypeInfo",
    "IntervalBounds",
    "MS_PER_MINUTE",
    "MS_PER_SECOND",
    "MultiWayWindowJoin",
    "RunResult",
    "Schema",
    "SlidingWindowAssigner",
    "StreamEnvironment",
    "StreamHandle",
    "TimeInterval",
    "TumblingWindowAssigner",
    "TypeRegistry",
    "Watermark",
    "WatermarkGenerator",
    "WindowSpec",
    "hours",
    "linear_pipeline",
    "merge_events",
    "minutes",
    "run_dataflow",
    "seconds",
    "sliding",
    "tumbling",
]

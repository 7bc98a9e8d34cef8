"""Pluggable execution backends behind one protocol.

* :class:`SerialBackend` — the chained depth-first reference semantics.
* :class:`ShardedBackend` — key-partitioned execution (O3 made physical),
  one lane per shard, with a measured makespan.
"""

from repro.asp.runtime.backends.base import (
    ExecutionBackend,
    ExecutionSettings,
    resolve_backend,
    run_dataflow,
)
from repro.asp.runtime.backends.serial import SerialBackend, SerialJob
from repro.asp.runtime.backends.sharded import ShardedBackend
from repro.asp.runtime.instrumentation import DEFAULT_SAMPLE_EVERY

__all__ = [
    "DEFAULT_SAMPLE_EVERY",
    "ExecutionBackend",
    "ExecutionSettings",
    "SerialBackend",
    "SerialJob",
    "ShardedBackend",
    "resolve_backend",
    "run_dataflow",
]

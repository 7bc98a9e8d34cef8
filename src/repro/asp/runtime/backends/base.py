"""The pluggable execution backend contract.

A backend turns a validated :class:`~repro.asp.graph.Dataflow` plus
:class:`ExecutionSettings` into a :class:`~repro.asp.runtime.result
.RunResult`. The contract deliberately says nothing about *how*: the
serial backend replays the paper's single-process semantics, the sharded
backend splits a keyed plan into per-shard lanes, and a future
distributed backend would ship subgraphs to remote workers behind the
same two calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.asp.runtime.instrumentation import DEFAULT_SAMPLE_EVERY
from repro.asp.runtime.result import RunResult
from repro.asp.time import MS_PER_MINUTE
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.asp.graph import Dataflow


#: Default batch size of ``repro run``, ``repro serve`` and
#: ``ServiceConfig``. ``ExecutionSettings`` defaults to 1, the batch size
#: every figure driver runs at.
DEFAULT_BATCH_SIZE = 256


@dataclass(frozen=True)
class ExecutionSettings:
    """Per-run knobs every backend honours."""

    memory_budget_bytes: int | None = None
    watermark_interval: int = MS_PER_MINUTE
    max_out_of_orderness: int = 0
    sample_every: int = DEFAULT_SAMPLE_EVERY
    #: Checkpoint every N source events (None disables checkpointing).
    checkpoint_interval: int | None = None
    #: Where checkpoints go (``repro.asp.runtime.fault.CheckpointStore``);
    #: None selects a fresh in-memory store per run.
    checkpoint_store: Any = None
    #: Deterministic faults to inject (``repro.asp.runtime.fault.FaultPlan``).
    fault_plan: Any = None
    #: How many times a crashed run is restarted from its checkpoint.
    max_restarts: int = 3
    #: Most source events per micro-batch (>= 1). Batches never cross
    #: watermark emissions, checkpoint cuts or source switches; a batch
    #: of one is a batch. Every size gives the same output and counters
    #: (the equivalence suites hold sizes 1, 256 and drawn ones to each
    #: other and to the oracle); larger batches amortize per-hop costs.
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ExecutionError(f"batch size must be >= 1, got {self.batch_size}")

    @property
    def fault_tolerant(self) -> bool:
        """Whether this run gets lanes (checkpoints and masked crashes)."""
        return self.fault_plan is not None or self.checkpoint_interval is not None


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute a dataflow to completion."""

    name: str

    def execute(self, flow: "Dataflow", settings: ExecutionSettings) -> RunResult: ...


def resolve_backend(
    spec: "str | ExecutionBackend | None",
    *,
    shards: int = 4,
    key_attribute: str = "id",
) -> "ExecutionBackend":
    """Build a backend from a CLI/harness spec (``"serial"``/``"sharded"``
    or an already-constructed backend)."""
    from repro.asp.runtime.backends.serial import SerialBackend
    from repro.asp.runtime.backends.sharded import ShardedBackend

    if spec is None or spec == "serial":
        return SerialBackend()
    if isinstance(spec, str):
        if spec == "sharded":
            return ShardedBackend(shards=shards, key_attribute=key_attribute)
        raise ExecutionError(f"unknown execution backend '{spec}'")
    return spec


def run_dataflow(
    flow: "Dataflow",
    *,
    backend: "str | ExecutionBackend | None" = None,
    shards: int = 4,
    key_attribute: str = "id",
    **settings: Any,
) -> RunResult:
    """Run ``flow`` to completion on the chosen backend.

    ``settings`` are :class:`ExecutionSettings` fields.
    """
    resolved = resolve_backend(backend, shards=shards, key_attribute=key_attribute)
    return resolved.execute(flow, ExecutionSettings(**settings))

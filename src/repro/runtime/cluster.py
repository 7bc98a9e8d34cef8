"""Simulated cluster execution — Figure 4's slot model.

Scale-out (Figure 6) is measured on the sharded execution backend
(:class:`repro.asp.runtime.ShardedBackend`), which actually splits a
keyed plan into per-shard subgraphs and runs them. This module models
what that backend does not: a worker's task slots, key skew over them
and per-worker memory budgets — the keys sweep and the memory-exhaustion
probe of Figure 4, whose orderings rest on its robust-makespan timing.

The paper's cluster (Section 5.1.1) is five nodes with 16 task slots per
worker; parallelism comes exclusively from key partitioning (both for
FCEP and for the O3-mapped queries). This module reproduces that model
deterministically on one machine:

1. the key space is hash-partitioned over ``num_workers * slots_per_
   worker`` task slots (the shuffle step);
2. each slot runs its partition of the workload as an independent
   single-threaded job (exactly what a Flink task slot does for a keyed
   operator chain);
3. slots of one worker execute sequentially in the simulation but would
   run concurrently in reality, so the *simulated wall time* of a worker
   is the maximum over its slots, and the cluster makespan is the maximum
   over workers;
4. aggregate throughput = total events / makespan — including skew: a
   partition with more keys than its peers dominates the makespan, which
   reproduces the paper's observation that FCEP stagnates once the number
   of keys exceeds the available slots.

Memory budgets are per worker; a slot failing with
:class:`~repro.errors.MemoryExhaustedError` fails the whole job (the
paper's FCEP behaviour beyond 1.3M tpl/s ingestion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

from repro.asp.datamodel import Event
from repro.asp.runtime import RunResult
from repro.asp.operators.keyby import partition_for
from repro.errors import ClusterError


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster (paper: up to 4 workers x 16 slots)."""

    num_workers: int = 1
    slots_per_worker: int = 16
    memory_per_worker_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ClusterError("cluster needs at least one worker")
        if self.slots_per_worker < 1:
            raise ClusterError("workers need at least one task slot")

    @property
    def total_slots(self) -> int:
        return self.num_workers * self.slots_per_worker

    @property
    def memory_per_slot_bytes(self) -> int | None:
        if self.memory_per_worker_bytes is None:
            return None
        return self.memory_per_worker_bytes // self.slots_per_worker


@dataclass
class SlotResult:
    slot: int
    worker: int
    keys: list[Hashable]
    result: RunResult
    matches: int


@dataclass
class ClusterRunResult:
    """Aggregate outcome of one partitioned job."""

    config: ClusterConfig
    slots: list[SlotResult] = field(default_factory=list)
    failed: bool = False
    failure: str | None = None

    @property
    def events_in(self) -> int:
        return sum(s.result.events_in for s in self.slots)

    @property
    def matches(self) -> int:
        return sum(s.matches for s in self.slots)

    def _robust_slot_seconds(self) -> dict[int, float]:
        """Per-slot simulated duration with measurement noise removed.

        Slots run sequentially in the simulation, so each slot's measured
        pipeline time carries independent scheduler/allocator jitter; a
        raw max over many slots would measure the jitter tail, not the
        workload. The robust model keeps the *data skew* (a slot's
        duration scales with its event count) while replacing the noisy
        per-slot rate with the median per-event cost across slots.
        """
        costs = sorted(
            slot.result.pipeline_seconds / slot.result.events_in
            for slot in self.slots
            if slot.result.events_in > 0
        )
        if not costs:
            return {slot.slot: 0.0 for slot in self.slots}
        median_cost = costs[len(costs) // 2]
        return {
            slot.slot: slot.result.events_in * median_cost for slot in self.slots
        }

    def worker_wall_seconds(self) -> list[float]:
        """Simulated wall time per worker: slots run concurrently, so a
        worker finishes with its slowest slot (robust slot durations —
        see :meth:`_robust_slot_seconds`)."""
        durations = self._robust_slot_seconds()
        walls = [0.0] * self.config.num_workers
        for slot in self.slots:
            walls[slot.worker] = max(walls[slot.worker], durations[slot.slot])
        return walls

    @property
    def makespan_seconds(self) -> float:
        walls = self.worker_wall_seconds()
        return max(walls) if walls else 0.0

    @property
    def throughput_tps(self) -> float:
        makespan = self.makespan_seconds
        if makespan <= 0:
            return 0.0
        return self.events_in / makespan

    @property
    def peak_state_bytes(self) -> int:
        """Peak simulated memory across workers (concurrent slots add up)."""
        per_worker = [0] * self.config.num_workers
        for slot in self.slots:
            per_worker[slot.worker] += slot.result.peak_state_bytes
        return max(per_worker) if per_worker else 0

    def skew(self) -> float:
        """Max/mean events per slot — 1.0 is perfectly balanced."""
        sizes = [s.result.events_in for s in self.slots if s.result.events_in]
        if not sizes:
            return 1.0
        return max(sizes) / (sum(sizes) / len(sizes))


def partition_streams(
    streams: Mapping[str, Sequence[Event]],
    num_partitions: int,
    key_fn: Callable[[Event], Hashable] | None = None,
) -> list[dict[str, list[Event]]]:
    """Shuffle: route every event of every stream to its hash partition."""
    key_of = key_fn or (lambda e: e.id)
    partitions: list[dict[str, list[Event]]] = [
        {name: [] for name in streams} for _ in range(num_partitions)
    ]
    for name, events in streams.items():
        for event in events:
            partitions[partition_for(key_of(event), num_partitions)][name].append(event)
    return partitions


#: A slot job: takes this slot's streams, returns (RunResult, match count).
SlotJob = Callable[[Mapping[str, Sequence[Event]], int | None], tuple[RunResult, int]]


def run_on_cluster(
    streams: Mapping[str, Sequence[Event]],
    job: SlotJob,
    config: ClusterConfig,
    key_fn: Callable[[Event], Hashable] | None = None,
) -> ClusterRunResult:
    """Execute ``job`` once per task slot on its key partition."""
    partitions = partition_streams(streams, config.total_slots, key_fn)
    key_of = key_fn or (lambda e: e.id)
    outcome = ClusterRunResult(config=config)
    budget = config.memory_per_slot_bytes
    for slot_index, slot_streams in enumerate(partitions):
        total = sum(len(v) for v in slot_streams.values())
        worker = slot_index // config.slots_per_worker
        if total == 0:
            continue  # idle slot (fewer keys than slots)
        keys = sorted(
            {key_of(e) for events in slot_streams.values() for e in events},
            key=repr,
        )
        result, matches = job(slot_streams, budget)
        outcome.slots.append(
            SlotResult(slot=slot_index, worker=worker, keys=keys,
                       result=result, matches=matches)
        )
        if result.failed:
            outcome.failed = True
            outcome.failure = f"slot {slot_index} (worker {worker}): {result.failure}"
            break
    return outcome

"""Fault tolerance for the ASP runtime: checkpoints, recovery, chaos.

Four pieces:

* :mod:`~repro.asp.runtime.fault.store` — checkpoint persistence
  (in-memory and on-disk with a JSON manifest);
* :mod:`~repro.asp.runtime.fault.checkpoint` — the coordinator that
  snapshots every operator at consistent between-event cuts and measures
  the overhead (count / bytes / p95 duration);
* :mod:`~repro.asp.runtime.fault.injection` — seeded deterministic
  faults (crash-at-event-N, slow-operator, drop-channel) and the CLI
  fault-plan parser;
* :mod:`~repro.asp.runtime.fault.recovery` — the round protocol: a
  :class:`Lane` (store, coordinator, injector, restart history) and the
  one restart loop, :func:`run_lane` — rebuild the job, restore the
  lane's latest checkpoint, replay sources from the checkpointed offset.

:mod:`~repro.asp.runtime.fault.chaos` drives all of it over the pattern
catalog and verifies the recovered output is byte-identical to a clean
serial run — the CI chaos gate.
"""

from repro.asp.runtime.fault.checkpoint import (
    CheckpointCoordinator,
    capture_job_state,
    restore_job_state,
)
from repro.asp.runtime.fault.injection import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)
from repro.asp.runtime.fault.recovery import (
    Lane,
    RecoveryReport,
    RestartRecord,
    checkpoint_metrics,
    open_lanes,
    run_lane,
)
from repro.asp.runtime.fault.store import (
    Checkpoint,
    CheckpointStore,
    DirectoryCheckpointStore,
    InMemoryCheckpointStore,
)

__all__ = [
    "Checkpoint",
    "CheckpointCoordinator",
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InMemoryCheckpointStore",
    "Lane",
    "RecoveryReport",
    "RestartRecord",
    "capture_job_state",
    "checkpoint_metrics",
    "open_lanes",
    "parse_fault_plan",
    "restore_job_state",
    "run_lane",
]

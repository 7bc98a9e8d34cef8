"""`repro serve` — the long-running multi-tenant query service.

Everything else in the reproduction is batch-shaped: build a dataflow,
push a finite workload, collect a :class:`RunResult`. This package is
the missing control plane (ROADMAP item 1): a persistent asyncio server
that

* ingests newline-delimited JSON events over TCP and HTTP, with
  per-source sequence numbers and watermark heartbeats
  (:mod:`~repro.runtime.service.events`);
* accepts live query ``submit``/``cancel`` over an HTTP/JSON control
  API, compiling submissions through the PR 6 optimizer — co-submitted
  queries share scans via ``translate_many``
  (:mod:`~repro.runtime.service.jobs`);
* runs every job as incremental checkpoint-backed rounds — the round
  protocol of :mod:`repro.asp.runtime.fault.recovery`, on the serial or
  the sharded backend — so jobs survive worker crashes and expose
  effectively-once sink output;
* serves per-job ``repro.metrics/v1`` trees and checkpoint state from
  ``/jobs/<id>/metrics`` and ``/jobs/<id>/checkpoints`` (PR 2's
  observability layer);
* applies admission control on bounded ingress queues —
  reject-with-retry-after or block, per job — and drains gracefully,
  checkpointing every job before exit
  (:mod:`~repro.runtime.service.server`).
"""

from repro.runtime.service.events import (
    SourceTracker,
    WireError,
    event_from_wire,
    event_to_wire,
    merge_streams_for_wire,
    parse_wire_line,
)
from repro.runtime.service.jobs import (
    AdmissionPolicy,
    JobBackend,
    JobManager,
    JobState,
    ServiceConfig,
)
from repro.runtime.service.server import ReproService, ServiceHandle, start_in_thread
from repro.runtime.service.state import ServiceState
from repro.runtime.service.client import (
    ServiceClient,
    backoff_schedule,
    format_service_error,
    stream_events,
)

__all__ = [
    "AdmissionPolicy",
    "JobBackend",
    "JobManager",
    "JobState",
    "ReproService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceState",
    "SourceTracker",
    "WireError",
    "backoff_schedule",
    "event_from_wire",
    "event_to_wire",
    "format_service_error",
    "merge_streams_for_wire",
    "parse_wire_line",
    "start_in_thread",
    "stream_events",
]

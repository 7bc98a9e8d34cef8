"""Stdlib client helpers for `repro serve` (tests, smoke scripts, docs).

:class:`ServiceClient` wraps the HTTP control API with
``http.client``; :func:`stream_events` drives the TCP ingest protocol
over a plain socket, ending with a ``{"op": "sync"}`` barrier so the
caller gets the connection's ingestion summary back.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Iterable, Sequence

from repro.asp.datamodel import Event
from repro.errors import ServiceError
from repro.runtime.service.events import event_to_wire

#: Transient transport failures worth retrying: the server is booting
#: (connection refused, e.g. right after a restart) or died mid-exchange
#: (reset / dropped connection). HTTP-level errors are never retried —
#: a 4xx/5xx means the server *answered*.
_TRANSIENT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
    http.client.RemoteDisconnected,
)


def backoff_schedule(
    retries: int, base_ms: float = 50.0, cap_ms: float = 2000.0
) -> list[float]:
    """Delays (ms) between transient-error retries: capped exponential.

    ``base_ms * 2**attempt`` clamped to ``cap_ms`` — deterministic (no
    jitter) so tests can assert the exact schedule; the cap keeps a
    restarting server's worst-case reconnect wait bounded.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    return [min(base_ms * (2.0**attempt), cap_ms) for attempt in range(retries)]


def format_service_error(exc: ServiceError) -> str:
    """Pretty-print a service error's structured diagnostics.

    Submission 400s (``static-analysis``, ``sharing-conflict``) carry the
    analyzer's diagnostics as ``details``; this renders them the way
    ``repro lint`` would, one coded finding per line, so CLI callers and
    smoke scripts can show *why* a submit was rejected instead of just
    the HTTP status.
    """
    lines = [f"{exc.code} (HTTP {exc.status}): {exc}"]
    for detail in exc.details:
        if not isinstance(detail, dict):
            lines.append(f"  {detail}")
            continue
        severity = detail.get("severity", "error")
        code = detail.get("code", "?")
        at = f" at {detail['where']}" if detail.get("where") else ""
        loc = f" ({detail['source']})" if detail.get("source") else ""
        lines.append(
            f"  {severity}[{code}]{at}: {detail.get('message', '')}{loc}"
        )
    return "\n".join(lines)


class ServiceClient:
    """Thin JSON-over-HTTP client for the control API.

    ``retries`` > 0 makes :meth:`request` retry transient transport
    failures (connection refused / reset / dropped) on the capped
    exponential :func:`backoff_schedule` — enough to ride out a server
    restart. The default is 0: every request opens a fresh connection
    and requests are not assumed idempotent by the transport.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30,
        retries: int = 0,
        backoff_base_ms: float = 50.0,
        backoff_cap_ms: float = 2000.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base_ms = backoff_base_ms
        self.backoff_cap_ms = backoff_cap_ms

    def request(
        self, method: str, path: str, body: bytes | dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """One request; returns ``(status, decoded JSON document)``."""
        if isinstance(body, dict):
            body = json.dumps(body).encode("utf-8")
        delays = backoff_schedule(
            self.retries, self.backoff_base_ms, self.backoff_cap_ms
        )
        for attempt, delay_ms in enumerate([*delays, None]):
            try:
                return self._request_once(method, path, body)
            except _TRANSIENT_ERRORS as exc:
                if delay_ms is None:
                    raise ServiceError(
                        "unreachable",
                        f"{method} {path} failed after {attempt + 1} "
                        f"attempt(s): {exc}",
                        status=503,
                    ) from exc
                time.sleep(delay_ms / 1000.0)
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, dict[str, Any]]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            payload = response.read()
            doc = json.loads(payload.decode("utf-8")) if payload else {}
            return response.status, doc
        finally:
            conn.close()

    def _checked(
        self, method: str, path: str, body: bytes | dict[str, Any] | None = None
    ) -> dict[str, Any]:
        status, doc = self.request(method, path, body)
        if status >= 400:
            error = doc.get("error", {})
            raise ServiceError(
                error.get("code", "http"),
                error.get("message", f"{method} {path} -> {status}"),
                status=status,
                details=error.get("details"),
            )
        return doc

    # -- convenience wrappers ---------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self._checked("GET", "/healthz")

    def server_metrics(self) -> dict[str, Any]:
        return self._checked("GET", "/metrics")

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        return self._checked("POST", "/jobs", request)

    def jobs(self) -> list[dict[str, Any]]:
        return self._checked("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._checked("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._checked("DELETE", f"/jobs/{job_id}")

    def cancel_tenant(self, job_id: str, tenant: str) -> dict[str, Any]:
        return self._checked("DELETE", f"/jobs/{job_id}/tenants/{tenant}")

    def flush(self, job_id: str) -> dict[str, Any]:
        return self._checked("POST", f"/jobs/{job_id}/flush")

    def metrics(self, job_id: str) -> dict[str, Any]:
        return self._checked("GET", f"/jobs/{job_id}/metrics")

    def checkpoints(self, job_id: str) -> dict[str, Any]:
        return self._checked("GET", f"/jobs/{job_id}/checkpoints")

    def matches(self, job_id: str) -> dict[str, Any]:
        return self._checked("GET", f"/jobs/{job_id}/matches")

    def ingest_lines(self, lines: Sequence[str | bytes]) -> tuple[int, dict[str, Any]]:
        """POST raw NDJSON lines; returns (status, summary) unchecked so
        callers can inspect partial-failure summaries."""
        body = b"\n".join(
            line.encode("utf-8") if isinstance(line, str) else line for line in lines
        )
        return self.request("POST", "/ingest", body)

    def ingest_events(
        self,
        events: Iterable[Event],
        source: str | None = None,
        start_seq: int = 1,
    ) -> dict[str, Any]:
        lines = [
            json.dumps(event_to_wire(event, source, start_seq + offset))
            for offset, event in enumerate(events)
        ]
        status, summary = self.ingest_lines(lines)
        if status >= 400:
            raise ServiceError(
                "ingest", f"ingest failed: {summary.get('errors')}", status=status
            )
        return summary

    def drain(self) -> dict[str, Any]:
        return self._checked("POST", "/drain")

    def shutdown(self) -> dict[str, Any]:
        return self._checked("POST", "/shutdown")


def stream_events(
    host: str,
    port: int,
    events: Iterable[Event],
    source: str | None = "stream",
    start_seq: int = 1,
    watermark_every: int | None = None,
    timeout: float = 60,
) -> dict[str, Any]:
    """Stream events over the TCP ingest protocol; returns the sync summary.

    ``watermark_every`` interleaves a watermark heartbeat after every N
    events (carrying the last event's timestamp), which nudges the
    server into flushing queued events through a processing round.
    """
    error_lines: list[dict[str, Any]] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        # The buffered writer below flushes in chunks; none of them may
        # wait for the previous one's acknowledgement.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        writer = sock.makefile("wb")
        reader = sock.makefile("rb")
        seq = start_seq
        last_ts: int | None = None
        for event in events:
            doc = event_to_wire(event, source, seq if source is not None else None)
            writer.write((json.dumps(doc) + "\n").encode("utf-8"))
            seq += 1
            last_ts = event.ts
            if watermark_every and (seq - start_seq) % watermark_every == 0:
                writer.write(
                    (json.dumps({"watermark": last_ts, "source": source}) + "\n")
                    .encode("utf-8")
                )
        if watermark_every and last_ts is not None:
            writer.write(
                (json.dumps({"watermark": last_ts, "source": source}) + "\n")
                .encode("utf-8")
            )
        writer.write(b'{"op": "sync"}\n')
        writer.flush()
        # Per-line error responses (if any) arrive before the sync barrier.
        while True:
            raw = reader.readline()
            if not raw:
                raise ServiceError("tcp", "connection closed before sync", status=500)
            doc = json.loads(raw.decode("utf-8"))
            if "sync" in doc:
                summary = doc["sync"]
                summary["stream_errors"] = error_lines
                writer.write(b'{"op": "bye"}\n')
                writer.flush()
                return summary
            error_lines.append(doc.get("error", doc))

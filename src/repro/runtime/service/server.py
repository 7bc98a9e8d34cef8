"""The `repro serve` network frontends: HTTP control/ingest + TCP ingest.

Deliberately dependency-free: a minimal HTTP/1.1 implementation over
``asyncio`` streams (every response is ``Connection: close``) and a
newline-delimited-JSON TCP listener. Anything that can block — admission
in *block* mode waits on the worker draining a full queue — runs in the
default executor so the event loop stays responsive.

Control API (JSON in/out)::

    GET    /healthz               liveness + drain state
    GET    /metrics               server-wide counters + ingest tracker
    GET    /jobs                  list jobs
    POST   /jobs                  submit (catalog names / inline patterns)
    GET    /jobs/{id}             one job's status (id or unique name)
    DELETE /jobs/{id}             cancel
    DELETE /jobs/{id}/tenants/{q} cancel one tenant of a shared-scan group
    POST   /jobs/{id}/flush       round + cut: process what is queued, checkpoint
    GET    /jobs/{id}/metrics     repro.metrics/v1 report + service section
    GET    /jobs/{id}/checkpoints checkpoint chain + coordinator counters
    GET    /jobs/{id}/matches     canonical match keys per query
    POST   /ingest                NDJSON event batch (same lines as TCP)
    POST   /drain                 graceful drain: flush + checkpoint all jobs
    POST   /shutdown              drain, then stop the server

Errors are structured documents — ``{"error": {"code": ..., "message":
..., "details": [...]}}`` with the :class:`~repro.errors.ServiceError`
status — never stack traces.

The TCP ingest protocol accepts the same NDJSON lines; malformed lines
get a ``{"error": ...}`` response line (the connection stays open),
``{"op": "sync"}`` answers with a ``{"sync": ...}`` summary barrier, and
``{"op": "bye"}`` or EOF ends the session.

A producer writes a batch and then a short line that asks for an answer
(the barrier; an HTTP body after its head). With Nagle's algorithm on,
its kernel holds the short write until the batch is acknowledged, and a
receiver that has nothing to send back delays that acknowledgement by
about 40 ms — a write–write–read stall that has nothing to do with the
work. Every accepted connection therefore acknowledges what it reads at
once (:func:`_ack_at_once`).
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServiceError
from repro.runtime.service.events import WireError, parse_wire_line
from repro.runtime.service.jobs import JobManager, ServiceConfig

#: Bytes per read of a TCP ingest session; also its longest whole line.
_READ_BYTES = 1 << 16

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _ack_at_once(writer: asyncio.StreamWriter) -> None:
    """Acknowledge this connection's received segments immediately.

    Linux leaves quick-ACK mode by itself (the flag is a hint the kernel
    clears as the connection's traffic pattern changes), so a session
    calls this at accept and again after every read; setting it also
    sends an acknowledgement that was being delayed. Where the platform
    has no ``TCP_QUICKACK`` nothing happens and acknowledgements keep
    the kernel's default timing.
    """
    option = getattr(socket, "TCP_QUICKACK", None)
    sock = writer.get_extra_info("socket")
    if option is None or sock is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, option, 1)
    except OSError:
        pass  # the peer is gone; the next read or write reports it


def _new_summary() -> dict[str, Any]:
    """Running totals of one ingest session; what ``sync`` and ``POST
    /ingest`` answer with."""
    return {
        "accepted": 0,
        "rejected": 0,
        "duplicates": 0,
        "watermarks": 0,
        "errors": [],
        "rejections": [],
    }


def _http_response(status: int, body: dict[str, Any]) -> bytes:
    payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload


class ReproService:
    """One server instance: a :class:`JobManager` plus its listeners."""

    def __init__(
        self,
        manager: JobManager | None = None,
        host: str = "127.0.0.1",
        http_port: int = 0,
        tcp_port: int = 0,
    ):
        self.manager = manager or JobManager()
        self.host = host
        self.http_port = http_port
        self.tcp_port = tcp_port
        self.shutdown_event: asyncio.Event | None = None
        self._servers: list[asyncio.base_events.Server] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners and start the manager's worker thread."""
        self.shutdown_event = asyncio.Event()
        self.manager.start()
        http_server = await asyncio.start_server(
            self._handle_http, self.host, self.http_port
        )
        tcp_server = await asyncio.start_server(
            self._handle_tcp, self.host, self.tcp_port
        )
        self._servers = [http_server, tcp_server]
        self.http_port = http_server.sockets[0].getsockname()[1]
        self.tcp_port = tcp_server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        assert self.shutdown_event is not None, "call start() first"
        await self.shutdown_event.wait()
        await self.aclose()

    async def aclose(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        self.manager.stop()

    def request_shutdown(self) -> None:
        if self.shutdown_event is not None:
            self.shutdown_event.set()

    # -- HTTP --------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _ack_at_once(writer)
        try:
            status, body = await self._http_request(reader)
            writer.write(_http_response(status, body))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _http_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, Any]]:
        request_line = (await reader.readline()).decode("ascii", "replace").strip()
        if not request_line:
            return 400, {"error": {"code": "bad-request", "message": "empty request"}}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {
                "error": {"code": "bad-request", "message": "malformed request line"}
            }
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        content_length = 0
        while True:
            header = (await reader.readline()).decode("ascii", "replace").strip()
            if not header:
                break
            if header.lower().startswith("content-length:"):
                try:
                    content_length = int(header.split(":", 1)[1].strip())
                except ValueError:
                    return 400, {
                        "error": {
                            "code": "bad-request",
                            "message": "invalid Content-Length",
                        }
                    }
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        try:
            return await self._route(method, path, body)
        except ServiceError as exc:
            return exc.status, {"error": exc.as_dict()}
        except WireError as exc:
            return 400, {"error": exc.as_dict()}
        except Exception as exc:  # noqa: BLE001 — the API never leaks tracebacks
            print(f"repro serve: internal error on {method} {path}: {exc!r}",
                  file=sys.stderr)
            return 500, {
                "error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}
            }

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        loop = asyncio.get_running_loop()
        manager = self.manager
        segments = [s for s in path.split("/") if s]

        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "draining": manager.draining,
                "jobs": len(manager.jobs),
            }
        if path == "/metrics" and method == "GET":
            return 200, manager.server_metrics()
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": manager.list_jobs()}
        if path == "/jobs" and method == "POST":
            request = self._json_body(body)
            info = await loop.run_in_executor(None, manager.submit, request)
            return 200, info
        if path == "/ingest" and method == "POST":
            summary = _new_summary()
            # Lines end at "\n" only, as on TCP: a bare "\r" is JSON
            # whitespace inside a line, not a line break.
            await loop.run_in_executor(
                None, self._apply_lines, body.split(b"\n"), 1, summary
            )
            status = 400 if summary["errors"] else 200
            return status, summary
        if path == "/drain" and method == "POST":
            result = await loop.run_in_executor(None, manager.drain)
            return 200, result
        if path == "/shutdown" and method == "POST":
            await loop.run_in_executor(None, manager.drain)
            self.request_shutdown()
            return 200, {"status": "shutting-down"}

        if len(segments) >= 2 and segments[0] == "jobs":
            job_id = segments[1]
            tail = segments[2] if len(segments) > 2 else None
            if tail is None and method == "GET":
                return 200, manager.job_status(job_id)
            if tail is None and method == "DELETE":
                return 200, await loop.run_in_executor(None, manager.cancel, job_id)
            if tail == "flush" and method == "POST":
                manager.flush(job_id)
                return 200, {
                    "status": "flush-requested", "job": job_id, "does": "round + cut",
                }
            if tail == "metrics" and method == "GET":
                return 200, await loop.run_in_executor(
                    None, manager.job_metrics, job_id
                )
            if tail == "checkpoints" and method == "GET":
                return 200, await loop.run_in_executor(
                    None, manager.job_checkpoints, job_id
                )
            if tail == "matches" and method == "GET":
                return 200, await loop.run_in_executor(
                    None, manager.job_matches, job_id
                )
            if (
                tail == "tenants"
                and len(segments) == 4
                and method == "DELETE"
            ):
                return 200, await loop.run_in_executor(
                    None, manager.cancel_tenant, job_id, segments[3]
                )
        return 404, {
            "error": {"code": "not-found", "message": f"no route {method} {path}"}
        }

    @staticmethod
    def _json_body(body: bytes) -> dict[str, Any]:
        if not body:
            raise ServiceError("bad-request", "request body must be JSON")
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError("bad-request", f"body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ServiceError("bad-request", "body must be a JSON object")
        return doc

    def _ingest(self, run: list[tuple], summary: dict[str, Any]) -> None:
        """Ingest a run of event lines as one group commit."""
        if not run:
            return
        for outcome in self.manager.ingest_events(run):
            if outcome.get("duplicate"):
                summary["duplicates"] += 1
                continue
            summary["accepted"] += outcome["accepted"]
            for rejection in outcome.get("rejections", ()):
                summary["rejected"] += 1
                summary["rejections"].append(rejection)

    def _apply_lines(
        self, lines: list[bytes], first: int, summary: dict[str, Any]
    ) -> tuple[list[dict[str, Any]], bool]:
        """Apply consecutive lines of one ingest session (a TCP connection
        or a ``POST /ingest`` body) to ``summary``; runs in the executor.

        Consecutive event lines are ingested as one run. A heartbeat, a
        ``sync`` and a ``bye`` end the run first: a tracker snapshot
        never runs ahead of the WAL, and a ``sync`` answer means every
        line before it is durable.

        Returns the reply documents a TCP producer is owed, in order (an
        ``error`` per malformed line, a ``sync`` summary per barrier), and
        whether an ``{"op": "bye"}`` ended the session.
        """
        replies: list[dict[str, Any]] = []
        run: list[tuple] = []
        for number, raw in enumerate(lines, start=first):
            if not raw.strip():
                continue
            try:
                message = parse_wire_line(raw)
            except WireError as exc:
                error = {"line": number, **exc.as_dict()}
                summary["errors"].append(error)
                replies.append({"error": error})
                continue
            if message["kind"] == "event":
                run.append(
                    (message["event"], message["source"], message["seq"], message["line"])
                )
                continue
            self._ingest(run, summary)
            run = []
            if message["kind"] == "watermark":
                self.manager.heartbeat(message["source"], message["ts"])
                summary["watermarks"] += 1
            elif message["op"] == "sync":
                # Cap rejection detail so the barrier stays small.
                doc = dict(summary)
                doc["rejections"] = doc["rejections"][-20:]
                doc["errors"] = doc["errors"][-20:]
                replies.append({"sync": doc})
            else:
                return replies, True  # bye
        self._ingest(run, summary)
        return replies, False

    # -- TCP ingest --------------------------------------------------------

    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        summary = _new_summary()
        _ack_at_once(writer)
        try:
            applied = 0  # lines handed on so far; replies carry line numbers
            tail = b""
            while True:
                chunk = await reader.read(_READ_BYTES)
                _ack_at_once(writer)
                *lines, tail = (tail + chunk).split(b"\n")
                if tail and (not chunk or len(tail) > _READ_BYTES):
                    # EOF after an unterminated line, or no newline in
                    # sight (then a malformed one): take it as the line.
                    lines.append(tail)
                    tail = b""
                # Admission in "block" mode parks the producer's thread —
                # run it off-loop so other connections keep flowing. One
                # hand-off per read, not per line: a hand-off costs about
                # 80 µs of loop and thread wake-ups and, while a round is
                # running, waits for the interpreter lock both ways, which
                # per line would tie a producer's acknowledgement time to
                # whatever the worker happens to be doing.
                if lines:
                    replies, ended = await loop.run_in_executor(
                        None, self._apply_lines, lines, applied + 1, summary
                    )
                    applied += len(lines)
                    if replies:
                        writer.write(
                            "".join(json.dumps(doc) + "\n" for doc in replies).encode()
                        )
                        await writer.drain()
                    if ended:
                        break
                if not chunk:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


@dataclass
class ServiceHandle:
    """A running service in a background thread (tests, CLI, smoke)."""

    service: ReproService
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    host: str = "127.0.0.1"
    http_port: int = 0
    tcp_port: int = 0
    _stopped: bool = field(default=False, repr=False)

    @property
    def manager(self) -> JobManager:
        return self.service.manager

    @property
    def http_url(self) -> str:
        return f"http://{self.host}:{self.http_port}"

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.loop.call_soon_threadsafe(self.service.request_shutdown)
        self.thread.join(timeout=timeout)


def start_in_thread(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    http_port: int = 0,
    tcp_port: int = 0,
) -> ServiceHandle:
    """Boot a full service in a daemon thread; returns once it is bound."""
    service = ReproService(
        JobManager(config), host=host, http_port=http_port, tcp_port=tcp_port
    )
    ready = threading.Event()
    box: dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            loop.run_until_complete(service.start())
            ready.set()
            loop.run_until_complete(service.serve_until_shutdown())
        finally:
            if not ready.is_set():  # bind failed: unblock the caller
                box.setdefault("error", "service failed to start")
                ready.set()
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    ready.wait(timeout=10)
    if "loop" not in box or box.get("error"):
        raise ServiceError("boot", "service failed to start", status=500)
    return ServiceHandle(
        service=service,
        thread=thread,
        loop=box["loop"],
        host=host,
        http_port=service.http_port,
        tcp_port=service.tcp_port,
    )

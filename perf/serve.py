"""The two serve workloads: a real ``python -m repro serve`` subprocess
driven over TCP/HTTP, plus (traced pass) an in-process replay of the same
byte lines through the public calls the server makes.

Load sizing for 2 cores: one server process, one generator process with
two threads (sender, poller) and at most two connections (one TCP ingest
socket, one HTTP request at a time).
"""

from __future__ import annotations

import ast
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from perf import adapters
from perf.engine import engine_layers
from perf.stats import better_quartile, bucket_percentile, median, percentile
from perf.submit import compile_layers
from perf.trace import NullTracer, Tracer, durations, layer_seconds, self_seconds

SOURCE = "perf"
#: A reference match the poller never saw counts as this latency.
MISSING_MS = 10_000.0
#: Fixed limit on the open-loop tail latency (reported, not enforced).
LATENCY_LIMIT_MS = 500.0
#: Offered rate of ``serve-open`` in lines/s: about 45 % of the server's
#: core here. At 2000 the server sits at 60-80 % and the latency follows
#: every slow phase of the sandbox instead of the round cadence.
OPEN_RATE = 1000
#: Lines per repetition of ``serve-sat-durable`` per second of ``--seconds``
#: (sized on a 2-core sandbox so five repetitions take about that long).
LINES_PER_SECOND = 1000
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@contextmanager
def split_cpus():
    """Give the server the last allowed CPU and this process the others.

    The server's threads share one interpreter lock; left to the
    scheduler they sometimes spread over both cores, which doubles the
    server's CPU time per line and made throughput bimodal. Yields the
    server's CPU set (``None`` when only one CPU is allowed).
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        yield None
        return
    os.sched_setaffinity(0, allowed[:-1])
    try:
        yield {allowed[-1]}
    finally:
        os.sched_setaffinity(0, allowed)


class Server:
    """One ``repro serve`` subprocess; stdout/stderr go to ``work``."""

    def __init__(self, work: Path, durable: bool, admission: str, cpus: set | None):
        self.work = work
        self.cpus = cpus
        work.mkdir(parents=True, exist_ok=True)
        self.log_path = work / "server.log"
        self.state_dir = work / "state" if durable else None
        self.admission = admission
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.http_port = self.tcp_port = 0

    def start(self, timeout: float = 60.0) -> None:
        ready = self.work / "ready.json"
        ready.unlink(missing_ok=True)
        argv, env = adapters.serve_command(ready, self.state_dir, self.admission)
        with self.log_path.open("wb") as log:
            self.proc = subprocess.Popen(
                argv, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=str(self.work)
            )
        if self.cpus:
            os.sched_setaffinity(self.proc.pid, self.cpus)
        deadline = time.monotonic() + timeout
        ports = None
        while ports is None:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early with {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not ready within {timeout}s")
            time.sleep(0.01)
            try:
                ports = json.loads(ready.read_text())
            except (FileNotFoundError, json.JSONDecodeError):
                continue  # not written yet, or caught mid-write
        self.host = ports["host"]
        self.http_port, self.tcp_port = ports["http_port"], ports["tcp_port"]

    def http(self, method: str, path: str, body: dict | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.http_port, timeout=60)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            doc = json.loads(response.read() or b"{}")
        finally:
            conn.close()
        if response.status >= 400:
            raise RuntimeError(f"{method} {path} -> {response.status}: {doc}")
        return doc

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from ``/proc``."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if it does not end."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(timeout=10)


def _sync(sock: socket.socket, reader, error_lines: list) -> dict:
    """Send the sync barrier and wait for its summary; per-line error
    answers that arrive before it are appended to ``error_lines``."""
    sock.sendall(adapters.SYNC_LINE)
    while True:
        raw = reader.readline()
        if not raw:
            raise RuntimeError("connection closed before sync")
        doc = json.loads(raw)
        if "sync" in doc:
            return doc["sync"]
        error_lines.append(doc)


class Poller(threading.Thread):
    """Calls ``fetch()`` every ``interval`` seconds until finished: the
    generator's second thread, one HTTP request at a time."""

    def __init__(self, fetch, interval: float):
        super().__init__(name="perf-poller", daemon=True)
        self.fetch = fetch
        self.interval = interval
        self.starts: list[float] = []
        self.call_ms: list[float] = []
        self.error: Exception | None = None
        self._halt = threading.Event()

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                started = time.perf_counter()
                self.fetch()
                self.starts.append(started)
                self.call_ms.append((time.perf_counter() - started) * 1000.0)
                self._halt.wait(max(0.0, started + self.interval - time.perf_counter()))
        except Exception as exc:  # noqa: BLE001 - handed to the main thread by finish()
            self.error = exc

    def finish(self) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout=60)
        error, self.error = self.error, None
        if error is not None:
            raise error

    def interval_ms_p99(self) -> float:
        gaps = [(b - a) * 1000.0 for a, b in zip(self.starts, self.starts[1:])]
        return percentile(gaps, 99)


class Completion:
    """Tells when every job has processed its routed lines, from the job
    statuses the poller fetches once the sender is done."""

    def __init__(self, routed: dict[str, int]):
        self.pending = dict(routed)
        #: First status of each job after the last line was sent.
        self.backlog: dict[str, dict] = {}
        self.sender_done = threading.Event()
        self.all_done = threading.Event()
        self.done_at = 0.0

    def observe(self, job_id: str, status: dict) -> None:
        returned = time.perf_counter()
        if not self.sender_done.is_set():
            return
        self.backlog.setdefault(job_id, status)
        if job_id in self.pending and (
            status["events_processed"] >= self.pending[job_id]
            or status["state"] != "running"
        ):
            del self.pending[job_id]
            if not self.pending:
                self.done_at = returned
                self.all_done.set()

    def wait(self, timeout: float = 60.0) -> float:
        """Block until done (or the timeout: the shortfall then counts as
        lines never processed); returns the completion time."""
        self.sender_done.set()
        if not self.all_done.wait(timeout):
            self.done_at = time.perf_counter()
        return self.done_at

    def backlog_events(self) -> int:
        return sum(
            s["queue_depth"] + s["events_logged"] - s["events_processed"]
            for s in self.backlog.values()
        )


def _published(server: Server, job_ids: list[str]) -> dict:
    """What the program publishes about itself, read before shutdown."""
    server_doc = server.http("GET", "/metrics")
    rounds = rejected = checkpoints = checkpoint_bytes = 0
    checkpoint_p95 = 0.0
    trigger: dict | None = None
    for job_id in job_ids:
        doc = server.http("GET", f"/jobs/{job_id}/metrics")["service"]
        rounds += doc["rounds"]
        rejected += doc["ingress"]["ingress"]["admission.rejected"]["value"]
        hist = doc["ingress"]["rounds"]["trigger_latency_ms"]
        if hist["count"] and trigger is None:
            trigger = dict(hist)
        elif hist["count"]:
            trigger["counts"] = [a + b for a, b in zip(trigger["counts"], hist["counts"])]
            trigger["count"] += hist["count"]
            trigger["min"] = min(trigger["min"], hist["min"])
            trigger["max"] = max(trigger["max"], hist["max"])
        chain = server.http("GET", f"/jobs/{job_id}/checkpoints")["coordinator"]
        checkpoints += chain["count"]
        checkpoint_bytes += chain["bytes_total"]
        checkpoint_p95 = max(checkpoint_p95, chain["duration_p95_s"])
    ingest = server_doc["ingest"]
    return {
        "events.lines": ingest["events"],
        "events.dedup_drop_ratio": ingest["duplicates"] / max(1, ingest["events"]),
        "jobs.unrouted_ratio": server_doc["unrouted_events"] / max(1, ingest["events"]),
        "jobs.rejected": rejected,
        "jobs.rounds": rounds,
        "jobs.trigger_latency_ms_p50": bucket_percentile(trigger, 50) if trigger else 0.0,
        "fault.checkpoint_count": checkpoints,
        "fault.checkpoint_bytes": checkpoint_bytes,
        "fault.checkpoint_p95_ms": checkpoint_p95 * 1000.0,
    }


def _finish_run(server, jobs, routed, references, summary, error_lines):
    """Drain, then check outputs: every served job byte-identical to its
    batch reference, no line rejected, answered with an error or left
    unprocessed. Returns the shared tail of a serve run's result."""
    statuses = {name: server.http("GET", f"/jobs/{job_id}") for name, job_id in jobs.items()}
    started = time.perf_counter()
    server.http("POST", "/drain")
    drain_s = time.perf_counter() - started

    verify_started = time.perf_counter()
    problems: list[str] = []
    fetch_ms: list[float] = []
    matches = wrong_matches = 0
    for name, job_id in jobs.items():
        started = time.perf_counter()
        doc = server.http("GET", f"/jobs/{job_id}/matches")
        fetch_ms.append((time.perf_counter() - started) * 1000.0)
        served = doc["queries"][name]["keys"]
        reference = references[name].decode().split("\n") if references[name] else []
        matches += len(reference)
        if "\n".join(served).encode() != references[name]:
            delta = Counter(served)
            delta.subtract(Counter(reference))
            wrong = max(1, sum(abs(n) for n in delta.values()))
            wrong_matches += wrong
            problems.append(f"{name}: {wrong} matches differ from the batch reference")
    never = sum(max(0, routed[n] - statuses[n]["events_processed"]) for n in jobs)
    bad_lines = summary["rejected"] + len(error_lines) + never
    if bad_lines:
        problems.append(
            f"{summary['rejected']} lines rejected, {len(error_lines)} answered "
            f"with an error, {never} never processed"
        )
    return {
        "rounds": {name: statuses[name]["rounds"] for name in jobs},
        "drain_s": drain_s,
        "verify_s": time.perf_counter() - verify_started,
        "fetch_ms": fetch_ms,
        "matches": matches,
        "failed": wrong_matches + bad_lines,
        "errors": len(error_lines),
        "problems": problems,
    }


def _set_up(work: Path, cpus, count: int, seed: int, durable: bool, admission: str, specs):
    """What ``setup_s`` times: stream generation, server boot to the
    ready-file and the submits. The caller stops the returned server."""
    started = time.perf_counter()
    streams = adapters.build_streams(count, seed)
    lines, idents = adapters.wire_lines(streams, SOURCE)
    server = Server(work, durable, admission, cpus)
    try:
        server.start()
        jobs = {spec["name"]: server.http("POST", "/jobs", spec)["id"] for spec in specs}
    except BaseException:
        server.stop()
        raise
    return server, jobs, streams, lines, idents, time.perf_counter() - started


# -- in-process replay (traced pass) ------------------------------------------


def replay(messages, specs, strides, poll_every, status_every, state_dir, admission, tracer):
    """Push the identical byte lines through the public calls the server
    makes, in the server's order.

    ``strides`` maps a job name to the number of queued events that
    triggers its round, chosen so the replay runs about as many rounds as
    the server did; ``poll_every`` / ``status_every`` place the match and
    status reads at the cadence the poller had. With ``tracer=None``
    nothing is wrapped and nothing recorded.
    """
    manager = adapters.new_manager(state_dir, admission)
    enclosing = [-1, 0]  # span index and trace id the wrapped children attach to
    round_results = []

    def child(name, call):
        def wrapped(*args, **kwargs):
            index = tracer.begin(name, enclosing[0], enclosing[1])
            try:
                return call(*args, **kwargs)
            finally:
                tracer.end(index)
        return wrapped

    if tracer is None:
        tracer = NullTracer()
    else:
        if manager.state is not None:
            manager.state.append_wal = child("state.append_wal", manager.state.append_wal)
            manager.state.write_tracker = child(
                "state.write_tracker", manager.state.write_tracker
            )
        run_round = manager.run_round
        round_ids = iter(range(10**6, 2 * 10**6))

        def traced_round(job, terminal=False):
            trace = next(round_ids)
            index = tracer.begin("jobs.run_round", enclosing[0], trace)
            result = run_round(job, terminal)
            tracer.end(index)
            if result is not None:
                start = tracer.spans[index][1]
                tracer.add("serial.run", start, result.wall_seconds, index, trace)
                round_results.append(result)
            return result

        # An instance attribute, so drain()'s terminal rounds are spans too.
        manager.run_round = traced_round

    def top(name, number, call, *args):
        index = enclosing[0] = tracer.begin(name, -1, number)
        try:
            return call(*args)
        finally:
            tracer.end(index)
            enclosing[0] = -1

    try:
        jobs = {}
        for spec in specs:
            jobs[spec["name"]] = manager.jobs[manager.submit(spec)["id"]]
        order = list(jobs.values())
        events = statuses = 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for number, raw in enumerate(messages):
            enclosing[1] = number
            message = top("events.parse_wire_line", number, adapters.parse_wire_line, raw)
            if message["kind"] == "watermark":
                top("jobs.heartbeat", number, manager.heartbeat,
                    message["source"], message["ts"])
            elif message["kind"] == "event":
                top("jobs.ingest_event", number, manager.ingest_event,
                    message["event"], message["source"], message["seq"])
                events += 1
            for name, job in jobs.items():
                if job.pending >= strides[name]:
                    manager.run_round(job)
            if poll_every and number % poll_every == poll_every - 1:
                for job in order:
                    top("jobs.job_matches", number, manager.job_matches, job.job_id)
            if status_every and number % status_every == status_every - 1:
                job = order[statuses % len(order)]
                top("jobs.job_status", number, manager.job_status, job.job_id)
                statuses += 1
        loop_cpu_s = time.process_time() - cpu0
        enclosing[1] = len(messages)
        top("jobs.drain", len(messages), manager.drain)
        for job in order:
            top("jobs.job_matches", len(messages), manager.job_matches, job.job_id)
        total_s = time.perf_counter() - wall0
        wal_bytes = 0
        if manager.state is not None and manager.state.wal_path.exists():
            wal_bytes = manager.state.wal_path.stat().st_size
    finally:
        manager.stop()
    return {"loop_cpu_s": loop_cpu_s, "total_s": total_s, "events": events,
            "wal_bytes": wal_bytes, "round_results": round_results}


def _replay_layers(run: dict, specs, durable: bool, admission: str, work: Path):
    """Span-free replay, then the traced one; per-layer numbers from both."""
    messages, lines = run["messages"], run["lines"]
    # Never above half the queue limit: nothing drains a full queue here.
    strides = {
        name: min(5000, max(1, -(-run["routed"][name] // max(1, run["rounds"][name]))))
        for name in run["routed"]
    }
    poll_every = len(messages) // run["match_polls"] if run["match_polls"] else 0
    status_every = len(messages) // run["status_polls"] if run["status_polls"] else 0

    def one(tracer, tag):
        state_dir = work / tag if durable else None
        try:
            return replay(messages, specs, strides, poll_every, status_every,
                          state_dir, admission, tracer)
        finally:
            if state_dir is not None:
                shutil.rmtree(state_dir, ignore_errors=True)

    plain = one(None, "replay-plain")
    tracer = Tracer()
    traced = one(tracer, "replay-traced")
    spans = tracer.spans
    own = self_seconds(spans)
    layers = layer_seconds(own)
    rounds = durations(spans, "jobs.run_round")
    decile = max(1, len(rounds) // 10)
    wal = durations(spans, "state.append_wal")
    beats = durations(spans, "jobs.heartbeat")
    out = engine_layers(traced["round_results"])  # what was busy inside the rounds
    out.update(compile_layers(specs, Tracer(), reps=5))  # what the set-up's submits paid
    out.update({
        "events.decode_us_per_line": own.get("events.parse_wire_line", 0.0) / lines * 1e6,
        "state.wal_us_per_event": sum(wal) / max(1, len(wal)) * 1e6,
        "state.wal_bytes_per_event": traced["wal_bytes"] / max(1, len(wal)),
        "state.tracker_write_ms": sum(beats) / max(1, len(beats)) * 1000.0 if durable else 0.0,
        "jobs.ingest_us_per_event": own.get("jobs.ingest_event", 0.0)
        / max(1, traced["events"]) * 1e6,
        "jobs.round_ms_p50": percentile(rounds, 50) * 1000.0,
        "jobs.round_ms_p99": percentile(rounds, 99) * 1000.0,
        "jobs.round_self_share": own.get("jobs.run_round", 0.0) / max(1e-9, sum(rounds)),
        "jobs.round_growth_ratio": sum(rounds[-decile:]) / max(1e-9, sum(rounds[:decile])),
        "server.hop_us_per_line": (run["server_cpu_s"] - plain["loop_cpu_s"]) / lines * 1e6,
        "trace.overhead_frac": (traced["total_s"] - plain["total_s"]) / plain["total_s"],
        "trace.wire_self_s": layers.get("wire", 0.0),
        "trace.service_self_s": layers.get("service", 0.0),
        "trace.engine_self_s": layers.get("engine", 0.0),
        "trace.coverage": sum(layers.values()) / traced["total_s"],
    })
    return out, spans


# -- serve-open ---------------------------------------------------------------


def run_open(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Open loop at ``OPEN_RATE`` lines/s for ``seconds``: client-to-match
    latency of every reference match, each line timed from when it was due."""
    with split_cpus() as cpus:
        return _run_open(seed, seconds, trace, work, cpus)


def _run_open(seed, seconds, trace, work, cpus) -> dict:
    rate = OPEN_RATE
    spec = adapters.OPEN_JOB
    name = spec["name"]
    setups = []
    for attempt in range(3):  # set-up runs three times; the last server is used
        server, jobs, streams, lines, idents, setup_s = _set_up(
            work / f"open-{attempt}", cpus, int(rate * seconds), seed, False, "reject", [spec]
        )
        setups.append(setup_s)
        if attempt < 2:
            server.stop()
    job_id = jobs[name]
    try:
        types = set(server.http("GET", f"/jobs/{job_id}")["event_types"])
        routed = sum(1 for ident in idents if ident[0] in types)
        completion = Completion({job_id: routed})
        first_seen: dict[str, float] = {}

        def fetch():
            keys = server.http("GET", f"/jobs/{job_id}/matches")["queries"][name]["keys"]
            returned = time.perf_counter()
            if len(keys) > len(first_seen):
                for key in keys:
                    if key not in first_seen:
                        first_seen[key] = returned
            if completion.sender_done.is_set():
                completion.observe(job_id, server.http("GET", f"/jobs/{job_id}"))

        messages: list[bytes] = []
        late: list[float] = []
        # 47 ms, not 50: a poll period that divides the 200 ms heartbeat period
        # locks the poll phase to the rounds for a whole run, which shifts
        # every latency of that run by the same 0-50 ms.
        poller = Poller(fetch, 0.047)
        cpu0 = server.cpu_seconds()
        sock = socket.create_connection((server.host, server.tcp_port), timeout=60)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            poller.start()
            start = time.perf_counter() + 0.05
            next_beat = start + 0.2
            for index, line in enumerate(lines):
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if index and time.perf_counter() >= next_beat:
                    messages.append(adapters.heartbeat_line(idents[index - 1][1], SOURCE))
                    sock.sendall(messages[-1])
                    next_beat += 0.2
                sock.sendall(line)
                late.append(time.perf_counter() - due)
                messages.append(line)
            sent_all = time.perf_counter()
            messages.append(adapters.heartbeat_line(idents[-1][1], SOURCE))
            sock.sendall(messages[-1])
            error_lines: list = []
            summary = _sync(sock, sock.makefile("rb"), error_lines)
            processed_at = completion.wait()
            time.sleep(0.12)  # two more polls see what the last round released
        finally:
            poller.finish()
            sock.close()
        server_cpu_s = server.cpu_seconds() - cpu0
        reference_started = time.perf_counter()
        reference = adapters.serve_reference(spec, streams)
        reference_s = time.perf_counter() - reference_started
        end = _finish_run(server, {name: job_id}, {name: routed}, {name: reference},
                          summary, error_lines)

        # Latency sample: every reference match whose last constituent lies
        # at least one window length before the end of the stream (only the
        # terminal watermark releases the rest: verified above, not timed).
        line_of = {ident: index for index, ident in enumerate(idents)}
        samples = []
        for key in reference.decode().split("\n") if reference else []:
            last = max(ast.literal_eval(key), key=lambda part: part[1])
            if last[1] > idents[-1][1] - adapters.OPEN_WINDOW_MS:
                continue
            due = start + line_of[last[:3]] / rate
            seen = first_seen.get(key)
            samples.append((due, (seen - due) * 1000.0 if seen is not None else MISSING_MS))
        samples.sort()
        latencies = [ms for _due, ms in samples]
        # The tail is the median over five consecutive fifths of the run of
        # each fifth's p95: a stall of the sandbox moves one fifth, not the
        # reported number (the whole-run p99 is kept in ``info``).
        fifths = [latencies[i * len(latencies) // 5:(i + 1) * len(latencies) // 5]
                  for i in range(5)]
        fifths = [fifth for fifth in fifths if fifth]
        result = {
            "metrics": {
                "setup_s": better_quartile(setups, "lower"),
                "latency_ms": percentile(latencies, 50),
                "latency_tail_ms": median([percentile(f, 95) for f in fifths]),
                "throughput_per_s": len(lines) / (processed_at - start),
                "peak_rss_mb": server.peak_rss_mb(),
            },
            "attempted": len(lines) + end["matches"],
            "failed": end["failed"],
            "problems": end["problems"],
            "info": {
                "verify_s": end["verify_s"] + reference_s,
                "latency_samples": len(latencies),
                "latency_p99_ms": percentile(latencies, 99),
                "latency_limit_met": percentile(latencies, 99) <= LATENCY_LIMIT_MS,
                "matches": end["matches"],
                "lines": len(lines),
                "gen_late_ms_p50": percentile(late, 50) * 1000.0,
                "gen_late_ms_p99": percentile(late, 99) * 1000.0,
                "setup_s_reps": setups,
            },
        }
        if trace:
            layers = _published(server, [job_id])
            layers.update({
                "events.errors": end["errors"],
                "server.cpu_ms_per_kline": server_cpu_s / len(lines) * 1e6,
                "jobs.status_ms_per_call": 0.0,
                "jobs.matches_ms_per_call": median(poller.call_ms),
                "jobs.backlog_end_events": completion.backlog_events(),
                "jobs.drain_tail_s": processed_at - sent_all,
                "jobs.drain_s": end["drain_s"],
                "gen.late_ms_p99": percentile(late, 99) * 1000.0,
                "poll.interval_ms_p99": poller.interval_ms_p99(),
            })
            run = {
                "messages": messages, "lines": len(lines), "routed": {name: routed},
                "rounds": end["rounds"], "match_polls": len(poller.starts),
                "status_polls": 0, "server_cpu_s": server_cpu_s,
            }
            replayed, result["spans"] = _replay_layers(run, [spec], False, "reject", work)
            result["layers"] = {**layers, **replayed}
        return result
    finally:
        server.stop()


# -- serve-sat-durable ----------------------------------------------------------


#: Lines per batch of the closed loop: the sender waits for the server's
#: answer to one batch's sync barrier before it sends the next.
BATCH_LINES = 250


def _durable_rep(work: Path, count: int, seed: int, references, trace: bool, cpus) -> dict:
    """One closed-loop run against a fresh durable server: batches of
    ``BATCH_LINES`` lines, each ending in the sync barrier whose answer the
    sender waits for; every 20th line re-sent as a producer duplicate, a
    heartbeat every 500 lines and a final one."""
    specs = adapters.DURABLE_JOBS
    server, jobs, _streams, lines, idents, setup_s = _set_up(
        work, cpus, count, seed, True, "block", specs
    )
    try:
        batches: list[list[bytes]] = []
        for index, line in enumerate(lines, start=1):
            if index % BATCH_LINES == 1:
                batches.append([])
            batches[-1].append(line)
            if index % 20 == 0:
                batches[-1].append(line)
            if index % 500 == 0 or index == len(lines):
                batches[-1].append(adapters.heartbeat_line(idents[index - 1][1], SOURCE))
        sent = len(lines) + len(lines) // 20
        routed = {}
        for name, job_id in jobs.items():
            types = set(server.http("GET", f"/jobs/{job_id}")["event_types"])
            routed[name] = sum(1 for ident in idents if ident[0] in types)
        completion = Completion({jobs[name]: n for name, n in routed.items()})
        turn = [0]

        def fetch():  # round-robin over the jobs that have not caught up yet
            among = list(completion.pending)
            if among:
                job_id = among[turn[0] % len(among)]
                turn[0] += 1
                completion.observe(job_id, server.http("GET", f"/jobs/{job_id}"))

        poller = Poller(fetch, 0.02)
        ack_ms: list[float] = []
        error_lines: list = []
        cpu0 = server.cpu_seconds()
        sock = socket.create_connection((server.host, server.tcp_port), timeout=120)
        try:
            reader = sock.makefile("rb")
            start = time.perf_counter()
            for batch in batches:
                batch_started = time.perf_counter()
                sock.sendall(b"".join(batch))
                summary = _sync(sock, reader, error_lines)
                ack_ms.append((time.perf_counter() - batch_started) * 1000.0)
            sent_all = time.perf_counter()
            poller.start()
            processed_at = completion.wait()
        finally:
            poller.finish()
            sock.close()
        server_cpu_s = server.cpu_seconds() - cpu0
        end = _finish_run(server, jobs, routed, references, summary, error_lines)
        rep = {
            "setup_s": setup_s,
            "throughput_per_s": sent / (processed_at - start),
            "ack_ms": ack_ms,
            "peak_rss_mb": server.peak_rss_mb(),
            "attempted": sent + end["matches"],
            "lines": sent,
            **{k: end[k] for k in ("failed", "problems", "verify_s", "matches")},
        }
        if trace:
            rep["layers"] = _published(server, list(jobs.values()))
            rep["layers"].update({
                "events.errors": end["errors"],
                "server.cpu_ms_per_kline": server_cpu_s / sent * 1e6,
                "jobs.status_ms_per_call": median(poller.call_ms),
                "jobs.matches_ms_per_call": median(end["fetch_ms"]),
                "jobs.backlog_end_events": completion.backlog_events(),
                "jobs.drain_tail_s": processed_at - sent_all,
                "jobs.drain_s": end["drain_s"],
                "gen.late_ms_p99": 0.0,
                "poll.interval_ms_p99": poller.interval_ms_p99(),
            })
            messages = [m for batch in batches for m in [*batch, adapters.SYNC_LINE]]
            rep["run"] = {
                "messages": messages, "lines": sent, "routed": routed,
                "rounds": end["rounds"], "match_polls": 0,
                "status_polls": len(poller.starts), "server_cpu_s": server_cpu_s,
            }
        return rep
    finally:
        server.stop()


def run_durable(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Closed loop with block admission: four durable catalog jobs, five
    repetitions against fresh servers (one when tracing). Latency is the
    time from sending a batch to the answer to its sync barrier; every
    figure is the better quartile of the repetitions' (see
    ``stats.better_quartile``)."""
    specs = adapters.DURABLE_JOBS
    count = int(LINES_PER_SECOND * seconds)
    verify_started = time.perf_counter()
    streams = adapters.build_streams(count, seed)
    references = {spec["name"]: adapters.serve_reference(spec, streams) for spec in specs}
    reference_s = time.perf_counter() - verify_started
    with split_cpus() as cpus:
        reps = [
            _durable_rep(work / f"durable-{index}", count, seed, references, trace, cpus)
            for index in range(1 if trace else 5)
        ]
    result = {
        "metrics": {
            "setup_s": better_quartile([rep["setup_s"] for rep in reps], "lower"),
            "latency_ms": better_quartile(
                [percentile(rep["ack_ms"], 50) for rep in reps], "lower"
            ),
            "latency_tail_ms": better_quartile(
                [percentile(rep["ack_ms"], 90) for rep in reps], "lower"
            ),
            "throughput_per_s": better_quartile(
                [rep["throughput_per_s"] for rep in reps], "higher"
            ),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        },
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "problems": [p for rep in reps for p in rep["problems"]],
        "info": {
            "verify_s": reference_s + sum(rep["verify_s"] for rep in reps),
            "latency_samples": sum(len(rep["ack_ms"]) for rep in reps),
            "matches": reps[0]["matches"],
            "lines": reps[0]["lines"],
            "throughput_per_s_reps": [rep["throughput_per_s"] for rep in reps],
            "setup_s_reps": [rep["setup_s"] for rep in reps],
        },
    }
    if trace:
        replayed, result["spans"] = _replay_layers(reps[0]["run"], specs, True, "block", work)
        result["layers"] = {**reps[0]["layers"], **replayed}
    return result

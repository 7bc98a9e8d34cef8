"""In-memory spans recorded from the benchmark's own files.

A span is ``[name, start, end, parent, trace]``: ``parent`` is the index
of the span that caused it (-1 for a root) and ``trace`` is one id per
line / round / submit, shared by every span of that unit of work. Spans
live in a list until the run ends and are written out once.

Self time is a span's duration minus the part its child spans cover; the
layer of a span is the prefix of its name before the first dot, mapped
through :data:`LAYER_OF_MODULE`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: Module prefix of a span name -> the ROADMAP layer that owns it.
LAYER_OF_MODULE = {
    "events": "wire",
    "state": "wire",
    "jobs": "service",
    "fault": "service",
    "serial": "engine",
    "parser": "compiler",
    "optimizer": "compiler",
    "translator": "compiler",
    "analysis": "compiler",
    "sharing": "compiler",
}


class Tracer:
    """Records spans; ``begin``/``end`` are the hot-path API."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent: int = -1, trace: int = 0) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, parent, trace])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()

    def add(self, name: str, start: float, seconds: float, parent: int, trace: int) -> int:
        """A span whose duration was measured elsewhere (a returned
        ``RunResult.wall_seconds``), placed at ``start``."""
        self.spans.append([name, start, start + seconds, parent, trace])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int = -1, trace: int = 0) -> Iterator[int]:
        index = self.begin(name, parent, trace)
        try:
            yield index
        finally:
            self.end(index)


class NullTracer(Tracer):
    """Same calls, nothing recorded: the span-free pass of a replay."""

    def begin(self, name: str, parent: int = -1, trace: int = 0) -> int:
        return -1

    def end(self, index: int) -> None:
        return None

    def add(self, name: str, start: float, seconds: float, parent: int, trace: int) -> int:
        return -1


def self_seconds(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _trace in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for index, (name, start, end, _parent, _trace) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[index]
    return out


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _p, _t in spans if n == name]


def layer_seconds(self_by_name: dict[str, float]) -> dict[str, float]:
    """Self time summed per layer (spans of unknown modules are skipped)."""
    out: dict[str, float] = {}
    for name, seconds in self_by_name.items():
        layer = LAYER_OF_MODULE.get(name.split(".", 1)[0])
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + seconds
    return out


def parents_resolve(spans: list[list]) -> bool:
    """Every parent index names an earlier span that encloses its child."""
    for index, (_name, start, end, parent, _trace) in enumerate(spans):
        if parent == -1:
            continue
        if not 0 <= parent < index:
            return False
        if spans[parent][1] > start or spans[parent][2] < end:
            return False
    return True


def write_trace(path: Path, workload: str, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "fields": ["name", "start", "end", "parent", "trace"],
        "spans": spans,
    }
    path.write_text(json.dumps(doc))

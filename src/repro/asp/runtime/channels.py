"""Typed in-memory edges between operators.

A :class:`Channel` is the physical realization of one dataflow edge: it
frames what crosses the edge (items vs. watermarks, the two frame kinds
of an ASPS transport) and keeps backpressure counters — total frames and
the largest burst emitted in one operator invocation. The serial backend
delivers through channels synchronously (depth-first push); a
distributed backend would put a queue behind the same interface, which
is why the counters live here and not in the scheduler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.asp.graph import Dataflow, Edge


class Channel:
    """One directed edge: source operator → input ``port`` of target."""

    __slots__ = (
        "source_id",
        "target_id",
        "port",
        "source_name",
        "target_name",
        "items",
        "watermarks",
        "peak_burst",
    )

    def __init__(self, edge: "Edge", source_name: str, target_name: str):
        self.source_id = edge.source_id
        self.target_id = edge.target_id
        self.port = edge.port
        self.source_name = source_name
        self.target_name = target_name
        #: Item frames that crossed this edge.
        self.items = 0
        #: Watermark frames that crossed this edge.
        self.watermarks = 0
        #: Largest item batch a single upstream invocation pushed — the
        #: burst a real transport would have to buffer (backpressure
        #: proxy of the synchronous executor).
        self.peak_burst = 0

    def frame_items(self, count: int) -> None:
        self.items += count
        if count > self.peak_burst:
            self.peak_burst = count

    def frame_watermark(self) -> None:
        self.watermarks += 1

    def reset(self) -> None:
        """Zero the counters: frames are counted per run."""
        self.items = self.watermarks = self.peak_burst = 0

    def stats(self) -> dict[str, Any]:
        return {
            "edge": f"{self.source_name}->{self.target_name}:p{self.port}",
            "items": self.items,
            "watermarks": self.watermarks,
            "peak_burst": self.peak_burst,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Channel({self.source_name}->{self.target_name}:p{self.port}, "
            f"{self.items} items, {self.watermarks} wms)"
        )


def build_channels(flow: "Dataflow") -> dict[int, list[Channel]]:
    """One channel per edge, grouped by source node, in stable port order.

    The ordering matches the former executor's edge ordering (sorted by
    target id) so delivery order — and therefore match order — is
    unchanged by the refactor.
    """
    out: dict[int, list[Channel]] = {node_id: [] for node_id in flow.nodes}
    for node_id in flow.nodes:
        for edge in sorted(flow.out_edges(node_id), key=lambda e: e.target_id):
            out[node_id].append(
                Channel(
                    edge,
                    source_name=flow.nodes[edge.source_id].name,
                    target_name=flow.nodes[edge.target_id].name,
                )
            )
    return out


def channel_totals(channels: dict[int, list[Channel]]) -> dict[str, int]:
    """Aggregate frame counters for :attr:`RunResult.metadata`."""
    items = watermarks = peak = 0
    for group in channels.values():
        for channel in group:
            items += channel.items
            watermarks += channel.watermarks
            peak = max(peak, channel.peak_burst)
    return {"item_frames": items, "watermark_frames": watermarks, "peak_burst": peak}

"""Operator protocol of the push-based dataflow engine.

Every physical operator consumes *items* (``Event`` or ``ComplexEvent``)
on one or more input ports and produces items on its single output. The
executor drives operators with three calls:

* :meth:`Operator.process_batch` — a list of items arrived back to back
  on ``port`` (a batch of one is a batch);
* :meth:`Operator.on_watermark` — event time advanced; stateful operators
  finalize complete windows here;
* :meth:`Operator.on_close` — the stream ended; flush remaining state.

Operators are *stateless* (filter, map, union, key-by) or *stateful*
(window joins, aggregations, the CEP operator). Stateful operators
register :class:`~repro.asp.state.StateHandle` ledgers so the harness can
sample memory usage (Figure 5) and enforce budgets (Figure 4).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Union

from repro.asp.datamodel import ComplexEvent, Event
from repro.asp.state import StateHandle, StateRegistry
from repro.asp.time import Watermark

#: The unit of data flowing along dataflow edges.
Item = Union[Event, ComplexEvent]


def item_ts(item: Item) -> int:
    """Event time of an item (events and composed matches alike)."""
    return item.ts


def constituents(item: Item) -> tuple[Event, ...]:
    """The base events an item is composed of.

    A raw :class:`Event` is its own single constituent; a
    :class:`ComplexEvent` contributes all of its events. Joins use this to
    flatten nested compositions so that the final match is a flat
    ``ce(e1, ..., en)`` as the paper's data model requires.
    """
    if isinstance(item, Event):
        return (item,)
    return item.events


def item_size_bytes(item: Item) -> int:
    return item.size_bytes


class Operator:
    """Base class for all physical operators.

    Subclasses override :meth:`process_batch` (mandatory) and, when stateful,
    :meth:`on_watermark` / :meth:`on_close`. ``arity`` declares the number
    of input ports (1 for unary operators, 2 for joins).
    """

    arity = 1
    #: Logical operator category, used for plan rendering and metrics.
    kind = "operator"
    #: Whether this operator's *output multiset* is invariant under
    #: reordering of same-window inputs across sources. The batched
    #: scheduler regroups a watermark window's events per source only
    #: when every operator in the plan declares this; order-sensitive
    #: operators (the NSEQ next-occurrence UDF, the CEP NFA, float
    #: sum/avg aggregates) inherit the conservative default and pin the
    #: job to strict arrival-order batching.
    reorder_safe = False

    def __init__(self, name: str | None = None):
        self.name = name or type(self).__name__
        self._registry: StateRegistry | None = None
        self._state_handles: list[StateHandle] = []
        # Work counter: number of elementary operations performed. This is
        # the CPU-usage proxy sampled for Figure 5.
        self.work_units = 0

    # -- lifecycle -------------------------------------------------------

    def setup(self, registry: StateRegistry) -> None:
        """Bind the operator to the job's state registry.

        Called once by the executor before any item flows. Subclasses that
        keep state should call :meth:`create_state` from here (after
        delegating to ``super().setup``). Re-binding to a *new* registry
        (recovery restarting a flow) adopts the operator's existing
        handles so their accounting stays visible to the new job.
        """
        self._registry = registry
        for handle in self._state_handles:
            registry.adopt(handle)

    def create_state(self, name: str) -> StateHandle:
        if self._registry is None:
            # Allow standalone (unit-test) usage without an executor.
            self._registry = StateRegistry()
        handle = self._registry.create(name, owner=self.name)
        self._state_handles.append(handle)
        return handle

    # -- data path -------------------------------------------------------

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        """Handle a run of items that arrived back to back on ``port``;
        return the concatenated outputs in arrival order.

        The executor delivers same-source runs of the merged stream here,
        from one item up to the job's ``batch_size``. An override may
        return the input list unchanged for pass-through semantics;
        callers never mutate the returned list.
        """
        raise NotImplementedError

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        """Event time advanced past ``watermark.value``; emit results of
        all windows that are now complete. Stateless operators inherit
        this no-op."""
        return ()

    def on_close(self) -> Iterable[Item]:
        """The input streams ended. Default: emit via a terminal watermark."""
        return self.on_watermark(Watermark.terminal())

    # -- event time -------------------------------------------------------

    def watermark_delay(self) -> int:
        """How far this operator's outputs may lag the input watermark.

        A sliding window join fired at watermark ``wm`` emits items with
        event time down to ``wm - W``; the NSEQ next-occurrence UDF holds
        T1 events for up to ``W``. Downstream operators must therefore
        observe a watermark reduced by this delay, or they would close
        windows before delayed items arrive. The executor accumulates
        delays along graph paths (the analog of Flink's watermark
        re-assignment after event-time redefinition, paper Section 4.2.2).
        """
        return 0

    def state_horizon_ms(self) -> int | None:
        """Event-time span after which watermark progress provably evicts
        this operator's state, or ``None`` when no such bound exists.

        Stateless operators hold nothing (horizon 0). Stateful operators
        must override this with their window/bounds span; a stateful
        operator that returns ``None`` keeps state forever on an
        unbounded stream, which the static analyzer reports as RA301
        (the O2 motivation, checked without running the job).
        """
        return 0

    # -- fault tolerance ---------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """A self-contained, picklable copy of this operator's mutable
        state — the unit of the checkpoint protocol.

        The snapshot must capture everything :meth:`restore_state` needs
        to make a *fresh or dirty* instance byte-equivalent to this one:
        buffers, window cursors and specialized counters. Configuration
        (windows, predicates, keys) is NOT part of the snapshot — it is
        immutable and survives in the operator object itself. Containers
        must be copied (events themselves are immutable and may be
        shared), so later processing never mutates a taken checkpoint.

        Stateless operators inherit this base version (the work counter
        only); every stateful operator MUST override the pair — the
        static analyzer reports a missing override as RA601.
        """
        return {"work_units": self.work_units}

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        """Replace this operator's mutable state with ``snapshot``.

        Full replacement, not a merge: buffers are rebuilt from the
        snapshot and every :class:`StateHandle` is re-accounted from the
        restored content, so a recovered job's memory ledger matches the
        checkpointed one exactly.
        """
        self.work_units = snapshot["work_units"]

    # -- introspection ----------------------------------------------------

    @property
    def is_stateful(self) -> bool:
        return False

    @property
    def key_parallel_safe(self) -> bool:
        """Whether this operator may run as independent per-key-range
        instances (optimization O3, the shuffle an ASPS performs before
        keyed operators).

        Stateless operators are trivially safe — they hold nothing across
        items. Stateful operators are unsafe by default and opt in when
        their state is partitioned by a key (keyed joins, keyed
        aggregates, the keyed NFA): then splitting the key space over
        shards splits their state exactly, and shard-local results union
        to the global result without duplicates. The sharded backend
        refuses plans containing unsafe operators.
        """
        return True

    def state_size_bytes(self) -> int:
        if self._registry is None:
            return 0
        return sum(
            h.bytes_used for h in self._registry.handles() if h.owner == self.name
        )

    def state_items(self) -> int:
        if self._registry is None:
            return 0
        return sum(h.items for h in self._registry.handles() if h.owner == self.name)

    def state_peak_bytes(self) -> int:
        """Largest footprint this operator's state reached (per handle)."""
        if self._registry is None:
            return 0
        return sum(
            h.peak_bytes for h in self._registry.handles() if h.owner == self.name
        )

    def state_peak_items(self) -> int:
        if self._registry is None:
            return 0
        return sum(
            h.peak_items for h in self._registry.handles() if h.owner == self.name
        )

    def collect_metrics(self) -> dict[str, int | float]:
        """Operator-specific counters for the observability layer.

        The runtime publishes the universal metrics (events in/out,
        latency histogram, state size) itself; subclasses extend this
        dict with what only they can count — pairs tested by a join,
        windows fired by an aggregate, matches found by the NFA. Values
        must be merge-by-addition safe: shard roll-up sums them.
        """
        return {"work_units": self.work_units}

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "arity": self.arity}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class StatefulOperator(Operator):
    """Marker base class for operators that buffer items across calls."""

    @property
    def is_stateful(self) -> bool:
        return True

    @property
    def key_parallel_safe(self) -> bool:
        """Unsafe unless the subclass declares its state keyed."""
        return False

    def state_horizon_ms(self) -> int | None:
        """Unbounded unless the subclass declares its eviction span."""
        return None

"""Explicit windowing — the core of the paper's operator semantics.

Section 3.1.2 of the paper defines explicit windowing via two semantic
components: the *intra-window* semantic (Eq. 4: which events belong to a
finite substream ``T_k = [T]^{ts_e}_{ts_b}``) and the *inter-window*
semantic (Eq. 5: sliding windows ``T_{k+l}`` start every ``s`` time
units). :class:`SlidingWindowAssigner` implements exactly that
discretization; :class:`TumblingWindowAssigner` is the ``slide == size``
special case.

Theorem 2 of the paper requires the slide to be at most the minimum
inter-event gap of the fastest stream so that every event can start a
window (``slide-by-tuple`` in the limit). :func:`validate_slide_for_rate`
checks this condition and is exercised by the correctness tests.

:class:`SlidingWindowOperator` is the one implementation of that
semantics every mapped window operator runs under: it buffers arrivals
per key in time order (:class:`_SideBuffer`), fires each complete window
once, in index order, and evicts behind the cursor. The sliding joins,
the window aggregates and the exact Kleene operator supply only what
happens inside one window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.asp.operators.base import Item, StatefulOperator
from repro.asp.time import TimeInterval, Watermark

KeyFn = Callable[[Item], Any]

GLOBAL_KEY = "__global__"


def global_key(_item: Item) -> Any:
    return GLOBAL_KEY


@dataclass(frozen=True)
class WindowSpec:
    """User-facing window declaration: ``WITHIN (W, s)`` of the pattern."""

    size: int
    slide: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"window size must be positive, got {self.size}")
        if self.slide <= 0:
            raise ValueError(f"window slide must be positive, got {self.slide}")
        if self.slide > self.size:
            raise ValueError(
                f"slide {self.slide} larger than size {self.size} would drop events"
            )

    @property
    def is_tumbling(self) -> bool:
        return self.slide == self.size

    def windows_per_event(self) -> int:
        """How many concurrent windows an event is assigned to (cost model)."""
        return -(-self.size // self.slide)  # ceil division


class SlidingWindowAssigner:
    """Assigns a timestamp to all sliding windows containing it (Eq. 4/5).

    Window ``k`` covers ``[k * slide, k * slide + size)`` for integer
    ``k >= k_min``. An event with timestamp ``ts`` belongs to windows with
    ``k`` in ``(ts - size, ts] / slide`` — i.e. ``ceil((ts - size + 1) /
    slide) <= k <= floor(ts / slide)``.
    """

    def __init__(self, spec: WindowSpec):
        self.spec = spec

    def assign(self, ts: int) -> list[TimeInterval]:
        size, slide = self.spec.size, self.spec.slide
        first_k = -(-(ts - size + 1) // slide)  # ceil((ts - size + 1) / slide)
        last_k = ts // slide
        return [
            TimeInterval(k * slide, k * slide + size) for k in range(first_k, last_k + 1)
        ]

    def window_for_index(self, k: int) -> TimeInterval:
        return TimeInterval(k * self.spec.slide, k * self.spec.slide + self.spec.size)

    def indices_for(self, ts: int) -> range:
        size, slide = self.spec.size, self.spec.slide
        first_k = -(-(ts - size + 1) // slide)
        last_k = ts // slide
        return range(first_k, last_k + 1)

    def last_index_before(self, watermark_ts: int) -> int:
        """Largest window index whose end is <= ``watermark_ts``."""
        # window k ends at k * slide + size; closed when end <= watermark
        return (watermark_ts - self.spec.size) // self.spec.slide


class TumblingWindowAssigner(SlidingWindowAssigner):
    """Non-overlapping windows: the ``slide == size`` case."""

    def __init__(self, size: int):
        super().__init__(WindowSpec(size=size, slide=size))


def sliding(size: int, slide: int) -> WindowSpec:
    return WindowSpec(size=size, slide=slide)


def tumbling(size: int) -> WindowSpec:
    return WindowSpec(size=size, slide=size)


def validate_slide_for_rate(spec: WindowSpec, min_inter_event_gap: int) -> bool:
    """Theorem 2 condition: the slide must not exceed the smallest gap
    between consecutive events of the fastest involved stream, so that
    every event timestamp starts some substream and no match straddling a
    window boundary is lost.
    """
    return spec.slide <= max(1, min_inter_event_gap)


@dataclass(frozen=True)
class IntervalBounds:
    """Relative bounds of an Interval Join window (optimization O1).

    A right-side event ``e2`` joins a left-side event ``e1`` when
    ``e1.ts + lower < e2.ts < e1.ts + upper`` (exclusive bounds, matching
    the paper's ``e2.ts in (e1.ts + lowerBound, e1.ts + upperBound)``).

    Per Section 4.3.1: the conjunction uses ``(-W, +W)``; all other
    (temporally ordered) operators use ``(0, +W)``.
    """

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.upper <= self.lower:
            raise ValueError(f"empty interval bounds ({self.lower}, {self.upper})")

    def window_for(self, left_ts: int) -> TimeInterval:
        # Exclusive bounds on both sides; as timestamps are integral the
        # half-open [left_ts + lower + 1, left_ts + upper) is equivalent.
        return TimeInterval(left_ts + self.lower + 1, left_ts + self.upper)

    def accepts(self, left_ts: int, right_ts: int) -> bool:
        return left_ts + self.lower < right_ts < left_ts + self.upper

    @staticmethod
    def conjunction(window_size: int) -> "IntervalBounds":
        return IntervalBounds(-window_size, window_size)

    @staticmethod
    def sequence(window_size: int) -> "IntervalBounds":
        return IntervalBounds(0, window_size)


def group_by_key(keys: Iterable[Any], items: Sequence[Item]) -> dict[Any, list[Item]]:
    """Partition a run by its items' keys, preserving arrival order per
    key."""
    groups: dict[Any, list[Item]] = {}
    for key, item in zip(keys, items):
        group = groups.get(key)
        if group is None:
            groups[key] = [item]
        else:
            group.append(item)
    return groups


class _SideBuffer:
    """Per-key, time-sorted buffer of one operator input with state
    accounting; equal timestamps keep arrival order.

    An entry is the arriving item, accounted at its ``size_bytes``. With
    ``value_of`` an entry is ``value_of(item)`` instead and costs a fixed
    ``entry_bytes`` (what is stored is then not the item, so the item's
    size — attrs and all — is not what the buffer holds).
    """

    __slots__ = ("by_key", "handle", "value_of", "entry_bytes")

    def __init__(
        self,
        handle,
        value_of: Callable[[Item], Any] | None = None,
        entry_bytes: int = 0,
    ):
        self.by_key: dict[Any, tuple[list[int], list[Any]]] = {}
        self.handle = handle
        self.value_of = value_of
        self.entry_bytes = entry_bytes

    def _bytes(self, entries: Sequence[Any], count: int) -> int:
        """Accounted size of the first ``count`` of ``entries``."""
        if self.value_of is not None:
            return self.entry_bytes * count
        return sum(entry.size_bytes for entry in islice(entries, count))

    def extend(self, key: Any, run: Sequence[Item]) -> None:
        """Insert a run of items with one ledger adjustment.

        In-order items (the overwhelmingly common case — a micro-batch is
        a time-ordered run from one source) take the append path without
        any bisect; only genuinely late items fall back to positional
        insertion, after every buffered entry of the same timestamp.
        """
        entry = self.by_key.get(key)
        if entry is None:
            entry = self.by_key[key] = ([], [])
        ts_list, entries = entry
        value_of = self.value_of
        for item in run:
            ts = item.ts
            held = item if value_of is None else value_of(item)
            if ts_list and ts < ts_list[-1]:
                pos = bisect_right(ts_list, ts)
                ts_list.insert(pos, ts)
                entries.insert(pos, held)
            else:
                ts_list.append(ts)
                entries.append(held)
        self.handle.adjust(self._bytes(run, len(run)), len(run))

    def slice(self, key: Any, begin: int, end: int) -> list[Any]:
        """Entries of ``key`` with ts in [begin, end)."""
        entry = self.by_key.get(key)
        if entry is None:
            return []
        ts_list, entries = entry
        lo = bisect_left(ts_list, begin)
        hi = bisect_left(ts_list, end)
        return entries[lo:hi]

    def span(self, key: Any, begin: int, end: int) -> tuple[list[int], list[Any], int, int]:
        """``(timestamps, entries, lo, hi)`` of ``key``: its entries with
        ts in [begin, end) are ``entries[lo:hi]``."""
        entry = self.by_key.get(key)
        if entry is None:
            return [], [], 0, 0
        ts_list, entries = entry
        lo = bisect_left(ts_list, begin)
        return ts_list, entries, lo, bisect_left(ts_list, end, lo)

    def spans(
        self, begin: int, end: int
    ) -> Iterator[tuple[Any, list[int], list[Any], int, int]]:
        """``(key, timestamps, entries, lo, hi)`` of every key holding
        entries with ts in [begin, end): they are ``entries[lo:hi]``."""
        for key, (ts_list, entries) in self.by_key.items():
            lo = bisect_left(ts_list, begin)
            hi = bisect_left(ts_list, end, lo)
            if lo < hi:
                yield key, ts_list, entries, lo, hi

    def evict_before(self, min_keep_ts: int) -> None:
        """Drop every entry with ts < ``min_keep_ts``."""
        empty_keys = []
        for key, (ts_list, entries) in self.by_key.items():
            cut = bisect_left(ts_list, min_keep_ts)
            if cut:
                self.handle.adjust(-self._bytes(entries, cut), -cut)
                del ts_list[:cut]
                del entries[:cut]
            if not ts_list:
                empty_keys.append(key)
        for key in empty_keys:
            del self.by_key[key]

    # -- fault tolerance ---------------------------------------------------

    def snapshot(self) -> dict[Any, tuple[list[int], list[Any]]]:
        """Copy of the buffer content (containers copied, entries shared)."""
        return {
            key: (list(ts_list), list(entries))
            for key, (ts_list, entries) in self.by_key.items()
        }

    def restore(self, data: dict[Any, tuple[list[int], list[Any]]]) -> None:
        """Replace the buffer and re-account the handle from the content."""
        self.by_key = {
            key: (list(ts_list), list(entries)) for key, (ts_list, entries) in data.items()
        }
        self.handle.reset()
        for ts_list, entries in self.by_key.values():
            self.handle.adjust(self._bytes(entries, len(entries)), len(entries))


class SlidingWindowOperator(StatefulOperator):
    """The sliding-window firing protocol (Eq. 4/5), written once.

    Arrivals are only buffered, one :class:`_SideBuffer` per input port;
    all output happens in :meth:`on_watermark`, which hands every newly
    complete window to :meth:`_fire_window` exactly once, in index order,
    and then evicts what no later window can contain. A subclass supplies
    its constructor, that per-window body, and its counters.

    The cursor ``_next_window_index`` is the next window to fire. It
    starts at the first window containing the first arrival; an
    out-of-order arrival (within the allowed lateness) may move it back
    only until the first firing — after that the watermark guarantees no
    event needs an earlier window.

    Overlapping windows see the same entries again — the W/slide cost the
    paper attributes to small slides. To stay duplicate-free a body emits
    a composition only from the first window containing all of it
    (:meth:`_is_first_shared_window`).
    """

    #: Attribute names of the subclass's counters: published as metrics
    #: and carried by the snapshot under the same names.
    counters: tuple[str, ...] = ()
    #: Snapshot key of each port's buffer; empty puts the list of all
    #: ports' buffers under ``"buffers"``.
    buffer_keys: tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        window: WindowSpec,
        key_fns: Sequence[KeyFn | None],
        value_of: Callable[[Item], Any] | None = None,
        entry_bytes: int = 0,
    ):
        super().__init__(name)
        self.window = window
        self.assigner = SlidingWindowAssigner(window)
        self.is_keyed = all(fn is not None for fn in key_fns)
        self._key_fns = [fn or global_key for fn in key_fns]
        self._value_of = value_of
        self._entry_bytes = entry_bytes
        self._buffers: list[_SideBuffer] | None = None
        self._next_window_index: int | None = None
        self._windows_fired = False

    # -- introspection / metrics ------------------------------------------

    @property
    def key_parallel_safe(self) -> bool:
        return self.is_keyed

    def watermark_delay(self) -> int:
        # Window results carry event times down to W behind the firing
        # watermark (emit_ts="min" of a composition whose window just closed).
        return self.window.size

    def state_horizon_ms(self) -> int:
        # Buffers evict entries once no unfired window can contain them.
        return self.window.size

    def collect_metrics(self) -> dict[str, int | float]:
        metrics = super().collect_metrics()
        metrics.update((name, getattr(self, name)) for name in self.counters)
        return metrics

    # -- state ------------------------------------------------------------

    def setup(self, registry) -> None:
        super().setup(registry)
        self._open_buffers()

    def _open_buffers(self) -> list[_SideBuffer]:
        if self._buffers is None:
            self._buffers = [
                _SideBuffer(
                    self.create_state(f"buffer-{port}"), self._value_of, self._entry_bytes
                )
                for port in range(len(self._key_fns))
            ]
        return self._buffers

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        held = [buffer.snapshot() for buffer in self._open_buffers()]
        if self.buffer_keys:
            snap.update(zip(self.buffer_keys, held))
        else:
            snap["buffers"] = held
        snap.update(
            next_window_index=self._next_window_index,
            windows_fired_flag=self._windows_fired,
        )
        snap.update((name, getattr(self, name)) for name in self.counters)
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        if self.buffer_keys:
            held = [snapshot[key] for key in self.buffer_keys]
        else:
            held = snapshot["buffers"]
        for buffer, data in zip(self._open_buffers(), held):
            buffer.restore(data)
        self._next_window_index = snapshot["next_window_index"]
        # Join checkpoints written before the protocol was shared spell
        # the flag ``windows_fired`` (an aggregate's counter of that name
        # always came with ``windows_fired_flag``).
        flag = "windows_fired_flag" if "windows_fired_flag" in snapshot else "windows_fired"
        self._windows_fired = snapshot[flag]
        for name in self.counters:
            setattr(self, name, snapshot[name])

    # -- data path ---------------------------------------------------------

    def _buffer(self, port: int) -> _SideBuffer:
        buffers = self._open_buffers()
        if not 0 <= port < len(buffers):
            raise ValueError(f"{self.kind} received item on invalid port {port}")
        return buffers[port]

    def _open_windows_from(self, ts: int) -> None:
        """The cursor rule, for the oldest timestamp just buffered."""
        first_index = self.assigner.indices_for(ts)[0]
        if self._next_window_index is None or (
            not self._windows_fired and first_index < self._next_window_index
        ):
            self._next_window_index = first_index

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        """Bulk-buffer a run: grouped extends, one cursor update.

        Emission happens exclusively in :meth:`on_watermark`, and batches
        never span a watermark, so buffering a whole run at once is
        byte-equivalent to buffering its items one by one.
        """
        if not items:
            return []
        buffer = self._buffer(port)
        key_fn = self._key_fns[port]
        self.work_units += len(items)
        if key_fn is global_key:
            buffer.extend(GLOBAL_KEY, items)
        else:
            for key, group in group_by_key(map(key_fn, items), items).items():
                buffer.extend(key, group)
        # min() over the run commutes with the per-item cursor rule: the
        # window index is monotone in ts and nothing fires mid-batch.
        self._open_windows_from(min(item.ts for item in items))
        return []

    # -- firing ------------------------------------------------------------

    def _is_first_shared_window(self, window_begin: int, newest: int) -> bool:
        """True when the window at ``window_begin`` is the earliest one
        containing a whole composition whose newest constituent (inside
        the window) has timestamp ``newest``: every earlier window ends at
        or before ``newest``, and this one reaches back at least as far as
        any later one."""
        return newest >= self._first_shared_from(window_begin)

    def _first_shared_from(self, window_begin: int) -> int:
        """Start of the window's last slide stripe: the timestamps no
        earlier window contains."""
        return window_begin + self.window.size - self.window.slide

    def _last_useful_index(self) -> int:
        """Largest window index containing any buffered entry.

        A terminal watermark would otherwise ask for windows up to
        ``MAX_WATERMARK``; windows past the newest buffered entry are
        provably empty and are skipped.
        """
        newest = max(
            (
                ts_list[-1]
                for buffer in self._open_buffers()
                for ts_list, _entries in buffer.by_key.values()
                if ts_list
            ),
            default=-(2**62),
        )
        return newest // self.window.slide

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        if self._next_window_index is None:
            return ()
        last_complete = min(
            self.assigner.last_index_before(watermark.value), self._last_useful_index()
        )
        out: list[Item] = []
        k = self._next_window_index
        if k <= last_complete:
            self._windows_fired = True
        size, slide = self.window.size, self.window.slide
        while k <= last_complete:
            self._fire_window(k * slide, k * slide + size, out)
            k += 1
        self._next_window_index = k
        # Entries older than the next window's start can never fire again.
        for buffer in self._open_buffers():
            buffer.evict_before(k * slide)
        return out

    def _fire_window(self, begin: int, end: int, out: list[Item]) -> None:
        """Append the results of the complete window ``[begin, end)``."""
        raise NotImplementedError

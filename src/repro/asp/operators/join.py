"""Window joins — the ASP counterparts of AND, SEQ, ITER and NSEQ.

Table 1 of the paper maps four of the five SEA operators to join types:

* conjunction  → Cartesian product ``T1 x T2``,
* sequence     → Theta Join ``T1 ⋈_θ T2`` with θ = temporal order,
* iteration    → chain of Theta Self-Joins,
* negated seq. → UDF + Theta Join.

Two physical window implementations are provided:

* :class:`SlidingWindowJoin` — the default explicit-windowing join
  (paper Eq. 4/5). Every complete sliding window is joined independently,
  so overlapping windows re-test the same pairs — the cost the paper
  attributes to small slide sizes. To keep the *semantics* duplicate-free
  while preserving that cost, a pair is emitted only from the first
  window containing both items (no extra state; see
  :meth:`SlidingWindowOperator._is_first_shared_window`). Pass
  ``emit_duplicates=True`` to study the raw duplicate-emitting behaviour
  (paper Section 3.1.4).
* :class:`IntervalJoin` — optimization O1: content-based windows anchored
  at left-stream events, bounds ``(lower, upper)`` relative to ``e1.ts``.
  Matches eagerly on arrival from either side; no duplicates by
  construction, no slide parameter.

Both joins support optional *key functions* per side. With key functions
they behave as Equi Joins (optimization O3: hash-partitionable); without,
they run in a single global partition — the paper's "no naive key
partitioning" case. A ``theta`` predicate (temporal order and any other
non-equi constraint) is applied to every candidate pair.

The batch engine runs an interval join's pair loop as a function
generated from the plan (:func:`probe_source`). The sliding join's
per-window pair loop stays interpreted on purpose: its constant is the
W/slide cost the paper attributes to sliding windows, and the gates
calibrated on it (``bench_optimizer``'s never-loses parity and its
``SEQ-wide/static`` floor) fail when only that side gets cheaper;
``tests/test_paper_claims.py`` pins the pair count. What it can skip is
pairs a :class:`CandidateBound` (NSEQ's ``a_ts`` guard) rules out: they
are never tested, nor counted.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, Literal, Sequence

from repro.asp.codegen import bind, code_cache
from repro.asp.datamodel import ComplexEvent
from repro.asp.operators.base import Item, StatefulOperator
from repro.asp.operators.window import (
    GLOBAL_KEY,
    IntervalBounds,
    KeyFn,
    SlidingWindowOperator,
    WindowSpec,
    _SideBuffer,
    global_key,
    group_by_key,
)
from repro.asp.time import Watermark

log = logging.getLogger(__name__)

ThetaFn = Callable[[Item, Item], bool]


def compose(left: Item, right: Item, emit_ts: Literal["min", "max"]) -> ComplexEvent:
    """Compose a join pair into a flat match.

    ``emit_ts`` follows paper Section 4.2.2: ``min`` for partial matches of
    nested patterns (strictest downstream window constraint), ``max`` for
    complete matches.
    """
    # O(1) in the number of constituents: both parts already carry their
    # span and size, so nothing is re-derived from the leaves. Slot for
    # slot what ``ComplexEvent(l_events + r_events)`` yields.
    if type(left) is ComplexEvent:
        events, ts_b, ts_e, size = left.events, left.ts_b, left.ts_e, left.size_bytes
    else:
        events, ts_b, ts_e, size = (left,), left.ts, left.ts, 64 + left.size_bytes
    if type(right) is ComplexEvent:
        events += right.events
        size += right.size_bytes - 64
        r_b, r_e = right.ts_b, right.ts_e
    else:
        events += (right,)
        size += right.size_bytes
        r_b = r_e = right.ts
    if r_b < ts_b:
        ts_b = r_b
    if r_e > ts_e:
        ts_e = r_e
    return ComplexEvent.from_parts(
        events, ts_b, ts_e, ts_b if emit_ts == "min" else ts_e, size
    )


class SlidingWindowJoin(SlidingWindowOperator):
    """Join both sides within every complete sliding window (Eq. 4/5)."""

    arity = 2
    kind = "window-join"
    reorder_safe = True
    counters = ("pairs_tested", "pairs_emitted")
    buffer_keys = ("left", "right")

    def __init__(
        self,
        window: WindowSpec,
        theta: ThetaFn | None = None,
        left_key: KeyFn | None = None,
        right_key: KeyFn | None = None,
        emit_ts: Literal["min", "max"] = "max",
        emit_duplicates: bool = False,
        name: str | None = None,
    ):
        super().__init__(name or "sliding-window-join", window, (left_key, right_key))
        self.theta = theta
        self.emit_ts: Literal["min", "max"] = emit_ts
        self.emit_duplicates = emit_duplicates
        self.pairs_tested = 0
        self.pairs_emitted = 0

    def _fire_window(self, begin: int, end: int, out: list[Item]) -> None:
        left, right = self._open_buffers()
        theta = self.theta
        bound: CandidateBound | None = getattr(theta, "candidate_bound", None)
        tested = 0
        for key in left.by_key:
            lefts = left.slice(key, begin, end)
            if not lefts:
                continue
            ts_list, entries, lo, hi = right.span(key, begin, end)
            if lo == hi:
                continue
            rights = entries[lo:hi]
            for l_item in lefts:
                # Composed items (partial matches) span an interval; the
                # window must contain the WHOLE span, not just the single
                # buffered timestamp — otherwise an unordered (AND) chain
                # could combine items whose farthest constituents are more
                # than W apart.
                if isinstance(l_item, ComplexEvent):
                    l_min, l_max = l_item.ts_b, l_item.ts_e
                else:
                    l_min = l_max = l_item.ts
                if l_min < begin or l_max >= end:
                    continue
                candidates = rights
                if bound is not None:
                    candidates = rights[: bound.stop(ts_list, l_item, lo, hi) - lo]
                for r_item in candidates:
                    tested += 1
                    if isinstance(r_item, ComplexEvent):
                        r_min, r_max = r_item.ts_b, r_item.ts_e
                    else:
                        r_min = r_max = r_item.ts
                    if r_min < begin or r_max >= end:
                        continue
                    if theta is not None and not theta(l_item, r_item):
                        continue
                    if not self.emit_duplicates and not self._is_first_shared_window(
                        begin, max(l_max, r_max)
                    ):
                        continue
                    self.pairs_emitted += 1
                    out.append(compose(l_item, r_item, self.emit_ts))
        self.pairs_tested += tested
        self.work_units += tested


@dataclass(frozen=True)
class CandidateBound:
    """A sliding join's pair-test conjunct ``r.ts <= l[attribute]``
    (``<`` when ``strict``), lifted out of ``theta``.

    The translator attaches one to the theta closure it lowers
    (``theta.candidate_bound``) when both inputs deliver bare events; the
    closure then no longer tests that conjunct. Rights are buffered in
    time order, so the rights a left can join are a prefix of the
    window's slice, found by one bisect per left instead of one
    ``theta`` call per pair. A handwritten ``SlidingWindowJoin(theta=fn)``
    has none and tests every pair.
    """

    attribute: str
    strict: bool = False

    def stop(self, ts_list: list[int], item: Item, lo: int, hi: int) -> int:
        """End of the rights in ``ts_list[lo:hi]`` that ``item`` may join."""
        cut = bisect_left if self.strict else bisect_right
        return cut(ts_list, item[self.attribute], lo, hi)


@dataclass(frozen=True)
class ProbePlan:
    """What is known about an interval join before any event arrives.

    The translator attaches one to the theta closure it lowers
    (``theta.probe_plan``, the way a scan's ``check.keep`` travels); a
    handwritten ``IntervalJoin(bounds, theta=fn)`` has none and gets the
    default: both shapes decided per item, ``theta`` called per pair.
    """

    #: What each input delivers: ``"event"`` (bare ``Event``),
    #: ``"complex"`` (``ComplexEvent``) or ``"any"`` (tested per item).
    left_shape: str = "any"
    right_shape: str = "any"
    #: Sequence order ``max(left.ts) < min(right.ts)`` (Eq. 10).
    ordered: bool = False
    #: Iteration's inter-event condition on (last of left, first of right).
    condition: Callable[[Any, Any], bool] | None = None
    #: The residual conjuncts as Python expressions over ``l``/``r`` (a
    #: bare event side), ``le[i]``/``re[j]`` (constituents) and the
    #: constants ``_k0…``; ``None`` when the pair test stays one call to
    #: ``theta`` — ``fallback`` then says for which conjunct and why.
    conjuncts: tuple[str, ...] | None = None
    constants: tuple[Any, ...] = ()
    fallback: str = ""

    def describe(self) -> str:
        """The ``probe:`` note of ``repro explain``, after the join label."""
        shapes = f"{self.left_shape.capitalize()}×{self.right_shape.capitalize()}"
        if self.conjuncts is None:
            return f"{shapes}, falls back to theta() for {self.fallback}"
        n = len(self.conjuncts)
        return f"{shapes}, {n} conjunct{'' if n == 1 else 's'} inlined"


def _unpack(v: str, shape: str) -> tuple[list[str], list[str]]:
    """Source lines binding one side's span (``{v}_b``/``{v}_e``, needed
    to test a pair) and its events and event bytes (``{v}e``/``{v}_size``,
    needed by a complex side's conjuncts and to compose)."""
    event = ([f"{v}_b = {v}_e = {v}.ts"], [f"{v}e = ({v},)", f"{v}_size = {v}.size_bytes"])
    complex_ = (
        [f"{v}e = {v}.events", f"{v}_b = {v}.ts_b", f"{v}_e = {v}.ts_e"],
        [f"{v}_size = {v}.size_bytes - 64"],
    )
    if shape == "event":
        return event
    if shape == "complex":
        return complex_
    branch = [f"if type({v}) is _CE:"]
    branch += ["    " + line for line in complex_[0] + complex_[1]]
    branch += ["else:"]
    branch += ["    " + line for line in event[0] + event[1]]
    return branch, []


def probe_source(
    plan: ProbePlan, port: int, emit_ts: str, calls_theta: bool
) -> str:
    """Source of the probe of one join and arriving side.

    ``_probe(item, candidates, append)`` tests the arriving ``item``
    (left on port 0, right on port 1) against the opposite buffer's
    candidate slice and appends every match. Per pair: the total-span
    rule (every constituent pair within ``upper``, since composed items
    span an interval), then order, consecutive condition and residual
    conjuncts in ``theta``'s order, then :func:`compose` — with
    everything the plan fixes (shapes, which tests exist, the emit
    timestamp) decided here instead of per pair. Swapping the span rule
    and the order test is invisible (both are integer comparisons) and
    lets an ordered pair use ``ts_b = l_b, ts_e = r_e``, which order
    implies.
    """
    arriving, candidate = ("l", "r") if port == 0 else ("r", "l")
    shape = {"l": plan.left_shape, "r": plan.right_shape}
    head, head_late = _unpack(arriving, shape[arriving])
    early, late = _unpack(candidate, shape[candidate])
    inline = plan.conjuncts is not None
    tests: list[str] = []
    if inline and plan.ordered:
        tests.append("if l_e >= r_b: continue")
        ts_b, ts_e = "l_b", "r_e"
    else:
        tests += ["ts_b = l_b if l_b < r_b else r_b", "ts_e = l_e if l_e > r_e else r_e"]
        ts_b, ts_e = "ts_b", "ts_e"
    tests.append(f"if {ts_e} - {ts_b} >= _upper: continue")
    if not inline:
        if calls_theta:
            tests.append("if not theta(l, r): continue")
    else:
        if plan.condition is not None:
            last = "l" if plan.left_shape == "event" else "le[-1]"
            first = "r" if plan.right_shape == "event" else "re[0]"
            tests.append(f"if not cond({last}, {first}): continue")
        tests += [f"if not ({expr}): continue" for expr in plan.conjuncts or ()]
    emit = [
        "ce = _new(_CE)",
        "ce.events = le + re",
        f"ce.ts_b = {ts_b}",
        f"ce.ts_e = {ts_e}",
        f"ce.ts = {ts_b if emit_ts == 'min' else ts_e}",
        "ce.detection_ts = None",
        "ce.size_bytes = 64 + l_size + r_size",
        "append(ce)",
    ]
    lines = [f"def _probe({arriving}, candidates, append):"]
    lines += ["    " + line for line in head + head_late]
    lines.append(f"    for {candidate} in candidates:")
    lines += ["        " + line for line in early + tests + late + emit]
    return "\n".join(lines) + "\n"


_probe_code = code_cache("<interval-join probe>")


def compile_probe(source: str, namespace: dict[str, object]) -> Callable[..., None]:
    """Probe source as a function: joins of one shape share one code
    object, whatever their bounds, constants and callables, which live
    in ``namespace``."""
    return bind(_probe_code, source, "_probe", namespace)


class IntervalJoin(StatefulOperator):
    """Content-based window join (optimization O1, Section 4.3.1).

    For every left event ``e1`` the join window is
    ``(e1.ts + lower, e1.ts + upper)`` — bounds exclusive. Emission is
    eager: whichever side arrives second triggers the pair. Buffers are
    evicted by watermark. Duplicate-free by construction.
    """

    arity = 2
    kind = "interval-join"
    reorder_safe = True

    def __init__(
        self,
        bounds: IntervalBounds,
        theta: ThetaFn | None = None,
        left_key: KeyFn | None = None,
        right_key: KeyFn | None = None,
        emit_ts: Literal["min", "max"] = "max",
        name: str | None = None,
    ):
        super().__init__(name or "interval-join")
        self.bounds = bounds
        self.theta = theta
        self.left_key = left_key or global_key
        self.right_key = right_key or global_key
        self.is_keyed = left_key is not None and right_key is not None
        self.emit_ts: Literal["min", "max"] = emit_ts
        self._left: _SideBuffer | None = None
        self._right: _SideBuffer | None = None
        self.pairs_tested = 0
        self.pairs_emitted = 0
        # One per arriving port, compiled on that port's first batch:
        # constructing (and so submitting) a join compiles nothing.
        self._probes: list[Callable[..., None] | None] = [None, None]

    def __getstate__(self) -> dict[str, Any]:
        # Probes derive from configuration, they are not state: a copied
        # or pickled join builds its own on first use.
        state = self.__dict__.copy()
        state["_probes"] = [None, None]
        return state

    @property
    def key_parallel_safe(self) -> bool:
        return self.is_keyed

    def collect_metrics(self) -> dict[str, int | float]:
        metrics = super().collect_metrics()
        metrics["pairs_tested"] = self.pairs_tested
        metrics["pairs_emitted"] = self.pairs_emitted
        return metrics

    def setup(self, registry) -> None:
        super().setup(registry)
        self._ensure_buffers()

    def _ensure_buffers(self) -> None:
        if self._left is None:
            self._left = _SideBuffer(self.create_state("left-buffer"))
            self._right = _SideBuffer(self.create_state("right-buffer"))

    def snapshot_state(self) -> dict[str, Any]:
        self._ensure_buffers()
        snap = super().snapshot_state()
        snap.update(
            left=self._left.snapshot(),
            right=self._right.snapshot(),
            pairs_tested=self.pairs_tested,
            pairs_emitted=self.pairs_emitted,
        )
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self._ensure_buffers()
        self._left.restore(snapshot["left"])
        self._right.restore(snapshot["right"])
        self.pairs_tested = snapshot["pairs_tested"]
        self.pairs_emitted = snapshot["pairs_emitted"]

    def watermark_delay(self) -> int:
        # Eagerly emitted pairs can be up to max(upper, -lower) behind the
        # newest arrival that triggered them.
        return max(self.bounds.upper, -self.bounds.lower)

    def state_horizon_ms(self) -> int:
        # Buffers evict at wm - upper (left) / wm + lower (right).
        return max(self.bounds.upper, -self.bounds.lower)

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        """Bulk-buffer the run, then probe the *opposite* buffer per item.

        A run arrives on one port only, and probes read the opposite
        side's buffer — which this batch does not touch — so inserting the
        whole run before probing emits exactly the pairs, in exactly the
        order, of the same items in batches of one. Every pair is still
        emitted once: whichever side is processed later finds the earlier
        one buffered.

        The pair loop is this join's generated probe (:func:`probe_source`);
        counters advance per candidate slice, so they do not depend on how
        the stream is cut into batches.
        """
        if not items:
            return []
        self._ensure_buffers()
        lower, upper = self.bounds.lower, self.bounds.upper
        # Candidate timestamps relative to the arriving item's: rights in
        # (ts + lower, ts + upper), lefts in (ts - upper, ts - lower).
        if port == 0:
            own, other, key_fn = self._left, self._right, self.left_key
            begin_offset, end_offset = lower + 1, upper
        elif port == 1:
            own, other, key_fn = self._right, self._left, self.right_key
            begin_offset, end_offset = 1 - upper, -lower
        else:
            raise ValueError(f"join received item on invalid port {port}")
        probe = self._probes[port] or self._build_probe(port)
        keys: Iterable[Any]
        if self.is_keyed:
            keys = [key_fn(item) for item in items]
            for key, group in group_by_key(keys, items).items():
                own.extend(key, group)
        else:
            keys = repeat(GLOBAL_KEY)
            own.extend(GLOBAL_KEY, items)
        out: list[Item] = []
        append = out.append
        entry_of = other.by_key.get
        tested = 0
        for key, item in zip(keys, items):
            entry = entry_of(key)
            if entry is None:
                continue
            ts_list, candidates = entry
            ts = item.ts
            lo = bisect_left(ts_list, ts + begin_offset)
            hi = bisect_left(ts_list, ts + end_offset, lo)
            if lo < hi:
                tested += hi - lo
                probe(item, candidates[lo:hi], append)
        self.pairs_tested += tested
        self.pairs_emitted += len(out)
        self.work_units += len(items) + tested
        return out

    def _build_probe(self, port: int) -> Callable[..., None]:
        plan = getattr(self.theta, "probe_plan", None) or ProbePlan()
        namespace: dict[str, object] = {
            "_CE": ComplexEvent,
            "_new": object.__new__,
            "_upper": self.bounds.upper,
            "theta": self.theta,
            "cond": plan.condition,
        }
        namespace.update((f"_k{i}", value) for i, value in enumerate(plan.constants))
        if plan.conjuncts is None and self.theta is not None:
            log.debug("%s probe on port %d calls theta() per pair: falls back for %s",
                      self.name, port, plan.fallback or "an opaque theta")
        source = probe_source(plan, port, self.emit_ts, self.theta is not None)
        probe = self._probes[port] = compile_probe(source, namespace)
        return probe

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        self._ensure_buffers()
        wm = watermark.value
        # A left l is dead once no future right can fall into its window:
        # future rights have ts > wm, so keep l while l.ts + upper > wm.
        self._left.evict_before(wm - self.bounds.upper + 1)
        # A right r is dead once no future left can open a window over it:
        # future lefts have ts > wm, so keep r while r.ts > wm + lower.
        self._right.evict_before(wm + self.bounds.lower + 1)
        return ()

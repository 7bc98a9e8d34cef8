"""Plan-to-dataflow compiler: the executable half of the mapping.

:func:`compile_patterns` is the one compile pipeline — build the logical
plans (Table 1 rules), rewrite them, prove what a batch may share, lower
them into a physical dataflow on the :mod:`repro.asp` engine and verify
the result. Lowering pushes filters down to per-type scans, turns joins
into :class:`SlidingWindowJoin`/:class:`IntervalJoin` operators, O2
iterations into window aggregations, and NSEQ into the
union + next-occurrence UDF + ordered join of Listing 6.

``translate`` is the pipeline for one pattern
(:func:`~repro.mapping.multiquery.translate_many` for a batch with
shared scans). The result is a :class:`TranslatedQuery`: attach a sink,
execute, and compare against FCEP on identical sources (the paper's
methodology).
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Literal, Mapping, Sequence

from repro.asp.datamodel import ComplexEvent, Event, TypeRegistry
from repro.asp.runtime import RunResult
from repro.asp.operators.base import Item, constituents
from repro.asp.operators.join import CandidateBound, ProbePlan
from repro.asp.operators.sink import CollectSink, Sink
from repro.asp.operators.source import Source
from repro.asp.operators.window import IntervalBounds, WindowSpec
from repro.asp.stream import StreamEnvironment, StreamHandle
from repro.errors import ReproError, TranslationError
from repro.mapping.optimizations import TranslationOptions, o2_threshold_met
from repro.mapping.optimizer import optimize_plan, resolve_cost_model
from repro.mapping.optimizer.build import build_plan
from repro.mapping.optimizer.cost import CostModel, ordered_filters
from repro.mapping.optimizer.ir import (
    CountAggregate,
    KleeneIterate,
    LogicalPlan,
    MultiWayJoin,
    NseqPrepare,
    Permute,
    PlanNode,
    PostFilter,
    SchemaAlign,
    StreamScan,
    UnionAll,
    WindowJoin,
    WindowStrategy,
)
from repro.sea.ast import Pattern
from repro.sea.predicates import (
    Attr,
    Compare,
    Predicate,
    attribute_read,
    compile_mask,
    predicate_source,
)

if TYPE_CHECKING:  # pragma: no cover - the analysis package sits above mapping
    from repro.analysis.diagnostics import AnalysisReport
    from repro.analysis.sharing import SharingReport

log = logging.getLogger(__name__)


def _binding_of(aliases: tuple[str, ...], events: tuple[Event, ...]) -> dict[str, Event]:
    return dict(zip(aliases, events))


def _make_theta(join: WindowJoin) -> Callable[[Item, Item], bool] | None:
    """Compile a join's ordering + predicate constraints into a callable."""
    left_aliases = join.left.aliases
    right_aliases = join.right.aliases
    conjuncts = join.extra_theta
    ordered = join.ordered
    condition = join.consecutive_condition
    if not ordered and not conjuncts and condition is None:
        return None
    lifted = candidate_bound(join)
    if lifted is not None:
        # The sliding join applies this conjunct as the end of each
        # left's candidate slice, so the per-pair test skips it.
        index, _guard, bound = lifted
        conjuncts = conjuncts[:index] + conjuncts[index + 1:]

    def theta(left: Item, right: Item) -> bool:
        if ordered:
            # max/min event time without materializing constituents:
            # ComplexEvent tracks ts_e/ts_b, a bare Event is its own both.
            left_max = left.ts_e if isinstance(left, ComplexEvent) else left.ts
            right_min = right.ts_b if isinstance(right, ComplexEvent) else right.ts
            if left_max >= right_min:
                return False
        if condition is not None:
            left_last = left.events[-1] if isinstance(left, ComplexEvent) else left
            right_first = right.events[0] if isinstance(right, ComplexEvent) else right
            if not condition(left_last, right_first):
                return False
        if conjuncts:
            binding = _binding_of(left_aliases, constituents(left))
            binding.update(_binding_of(right_aliases, constituents(right)))
            for pred in conjuncts:
                if not pred.evaluate(binding):
                    return False
        return True

    if join.strategy is WindowStrategy.INTERVAL:
        # What the batch engine's generated probe inlines in place of
        # calling this closure per pair; travels like a scan's check.keep.
        theta.probe_plan = probe_plan(join)  # type: ignore[attr-defined]
    if lifted is not None:
        theta.candidate_bound = bound  # type: ignore[attr-defined]
    return theta


def _shape(node: PlanNode) -> str:
    """What a plan node emits: bare events, composed matches, or either."""
    if isinstance(node, (StreamScan, NseqPrepare)):
        return "event"
    if isinstance(node, (WindowJoin, MultiWayJoin, KleeneIterate, Permute)):
        return "complex"
    return "any"


_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def candidate_bound(join: WindowJoin) -> tuple[int, Compare, CandidateBound] | None:
    """The conjunct that bounds a sliding join's right candidates.

    On a sliding join of bare events, a conjunct comparing the right
    alias's own ``ts`` with a left attribute — ``L.x >= R.ts``, ``R.ts <=
    L.x`` or the strict ``>``/``<`` forms, as NSEQ's ``a_ts`` guard is —
    holds for a prefix of the right side's time-sorted window slice.
    Returns the first such conjunct's index in ``extra_theta``, the
    conjunct written as ``R.ts <= L.x`` (or ``<``) and the bound the join
    applies; ``None`` when there is none. The lowering and ``repro
    explain`` both read this.
    """
    if join.strategy is WindowStrategy.INTERVAL:
        return None
    if _shape(join.left) != "event" or _shape(join.right) != "event":
        return None
    (left_alias,), (right_alias,) = join.left.aliases, join.right.aliases
    if left_alias == right_alias:
        return None
    for index, pred in enumerate(join.extra_theta):
        if not (
            isinstance(pred, Compare)
            and isinstance(pred.left, Attr)
            and isinstance(pred.right, Attr)
        ):
            continue
        op, right_ref, left_ref = pred.op, pred.left, pred.right
        if right_ref.alias != right_alias:
            op, right_ref, left_ref = _MIRRORED.get(op, op), left_ref, right_ref
        if (
            op in ("<=", "<")
            and right_ref == Attr(right_alias, "ts")
            and left_ref.alias == left_alias
        ):
            bound = CandidateBound(left_ref.attribute, strict=op == "<")
            return index, Compare(op, right_ref, left_ref), bound
    return None


def probe_plan(join: WindowJoin) -> ProbePlan:
    """The plan facts an interval join's generated probe is built from.

    Each residual conjunct becomes a Python expression over the pair:
    ``l``/``r`` for a bare-event side, ``le[i]``/``re[j]`` for the i-th
    constituent otherwise; core attributes are slot reads, any other goes
    through ``event[name]`` so a missing one still raises ``SchemaError``.
    One conjunct without such a form — an alias bound more than once (the
    closure's later-binding-wins rule is not positional), a constituent
    index on a side of unknown arity, a predicate outside the closed AST
    — and the probe keeps calling the closure for the whole pair test.
    """
    left_shape, right_shape = _shape(join.left), _shape(join.right)
    sides = (
        ("l", left_shape, join.left.aliases),
        ("r", right_shape, join.right.aliases),
    )
    bound = join.left.aliases + join.right.aliases
    constants: list[Any] = []

    def attr_source(ref: Attr) -> str:
        if bound.count(ref.alias) != 1:
            raise TypeError(f"alias '{ref.alias}' bound {bound.count(ref.alias)} times")
        var, shape, aliases = sides[0] if ref.alias in sides[0][2] else sides[1]
        index = aliases.index(ref.alias)
        if shape == "any" and index:
            raise TypeError(f"'{ref.alias}' is constituent {index} of an input of unknown arity")
        event = var if shape == "event" else f"{var}e[{index}]"
        return attribute_read(event, ref.attribute)

    conjuncts: list[str] = []
    for pred in join.extra_theta:
        try:
            conjuncts.append(predicate_source(pred, attr_source, constants))
        except TypeError as exc:
            return ProbePlan(
                left_shape, right_shape, fallback=f"{pred.render()} ({exc})"
            )
    return ProbePlan(
        left_shape,
        right_shape,
        join.ordered,
        join.consecutive_condition,  # type: ignore[arg-type]
        tuple(conjuncts),
        tuple(constants),
    )


def _make_key_fn(
    side_aliases: tuple[str, ...],
    keys: tuple[tuple[str, str], ...],
) -> Callable[[Item], Any]:
    """Key extractor for one join side: tuple of (alias, attr) values."""
    positions = []
    for alias, attribute in keys:
        try:
            positions.append((side_aliases.index(alias), attribute))
        except ValueError:
            raise TranslationError(
                f"equi key references alias '{alias}' missing from side {side_aliases}"
            ) from None

    if len(positions) == 1:
        idx, attribute = positions[0]

        def single_key(item: Item) -> Any:
            return constituents(item)[idx][attribute]

        return single_key

    def multi_key(item: Item) -> Any:
        events = constituents(item)
        return tuple(events[idx][attribute] for idx, attribute in positions)

    return multi_key


def _attribute_key_fn(attribute: str | None) -> Callable[[Item], Any] | None:
    """Key extractor of a keyed n-ary join, aggregate or Kleene node:
    the partition attribute of the item's first event."""
    if attribute is None:
        return None

    def key_fn(item: Item) -> Any:
        return item[attribute] if isinstance(item, Event) else item.events[0][attribute]

    return key_fn


class _Compiler:
    """Lowers the plans of one compile call into one environment.

    Every plan lowered by the same instance shares one physical source
    node per ``Source`` object and one routing handle per event type.
    With a ``scan_cache`` the filtered scans are shared as well:
    identical normalized signatures share the whole pipeline, and scans
    the sharability prover proved subsumed (``subsumed``: ``(query,
    alias) -> (shared predicate, has residual filters)``) share the
    weakest-bound filter and re-apply their residual on top.
    """

    def __init__(
        self,
        env: StreamEnvironment,
        sources: Mapping[str, Source],
        scan_cache: dict[tuple[str, tuple[str, ...]], StreamHandle] | None = None,
        subsumed: Mapping[tuple[str, str], tuple[Predicate, bool]] | None = None,
    ):
        self.env = env
        self.sources = sources
        self.options = TranslationOptions()
        self._query = ""
        self._scan_cache = scan_cache
        self._subsumed = subsumed or {}
        self._source_handles: dict[str, StreamHandle] = {}
        # One physical source *node* per Source object: a shared stream
        # passed under several type keys is read once and fanned out to
        # per-type routing filters (the `repro serve` ingestion path
        # feeds every scan from one arrival-ordered log this way).
        self._physical_handles: dict[int, StreamHandle] = {}

    def lower(
        self, plan: LogicalPlan, options: TranslationOptions, query: str
    ) -> StreamHandle:
        """Lower one plan; ``query`` is its name in the sharability proof."""
        self.options = options
        self._query = query
        return self.compile(plan.root)

    def _source_handle(self, event_type: str) -> StreamHandle:
        handle = self._source_handles.get(event_type)
        if handle is None:
            try:
                source = self.sources[event_type]
            except KeyError:
                raise TranslationError(
                    f"no source provided for event type '{event_type}'"
                ) from None
            root = self._physical_handles.get(id(source))
            if root is None:
                root = self.env.add_source(source)
                self._physical_handles[id(source)] = root
            handle = root
            if source.event_type != event_type:
                # Shared physical stream: route by type first.
                handle = root.filter_type(event_type)
            self._source_handles[event_type] = handle
        return handle

    def compile(self, node: PlanNode) -> StreamHandle:
        if isinstance(node, StreamScan):
            return self._compile_scan(node)
        if isinstance(node, SchemaAlign):
            # All paper streams share the sensor schema, so alignment is
            # an annotation: the unified stream name is recorded without
            # rewriting the event (which must stay identical for match
            # equivalence). Heterogeneous schemas would add renames here.
            target = node.target_type
            return self.compile(node.input).map(
                lambda e, _t=target: e.with_attrs(unified_type=_t)
                if isinstance(e, Event)
                else e,
                name=f"align[{target}]",
            )
        if isinstance(node, UnionAll):
            first, *rest = [self.compile(part) for part in node.parts]
            return first.union(*rest)
        if isinstance(node, WindowJoin):
            return self._compile_join(node)
        if isinstance(node, MultiWayJoin):
            return self._compile_multiway(node)
        if isinstance(node, CountAggregate):
            return self._compile_aggregate(node)
        if isinstance(node, KleeneIterate):
            return self._compile_kleene(node)
        if isinstance(node, NseqPrepare):
            return self._compile_nseq_prepare(node)
        if isinstance(node, PostFilter):
            return self._compile_post_filter(node)
        if isinstance(node, Permute):
            return self._compile_permute(node)
        raise TranslationError(f"cannot compile plan node {node.label()}")

    def _compile_scan(self, node: StreamScan) -> StreamHandle:
        if self._scan_cache is None:
            return self._filtered_scan(node)
        # Canonical conjunct order, the one the sharability prover keys on.
        key = (node.event_type, tuple(p.render() for p in ordered_filters(node.filters)))
        handle = self._scan_cache.get(key)
        if handle is not None:
            return handle
        share = self._subsumed.get((self._query, node.alias))
        if share is None:
            handle = self._filtered_scan(node)
        else:
            shared_pred, has_residual = share
            base_key = (node.event_type, (shared_pred.render(),))
            base = self._scan_cache.get(base_key)
            if base is None:
                base = self._apply_filters(
                    self._source_handle(node.event_type),
                    (shared_pred,),
                    alias=f"shared[{node.event_type}]",
                )
                self._scan_cache[base_key] = base
            handle = (
                self._apply_filters(base, node.filters, node.alias)
                if has_residual
                else base
            )
        self._scan_cache[key] = handle
        return handle

    def _filtered_scan(self, node: StreamScan) -> StreamHandle:
        handle = self._source_handle(node.event_type)
        if node.filters:
            handle = self._apply_filters(handle, node.filters, node.alias)
        return handle

    def _apply_filters(
        self, handle: StreamHandle, filters: Sequence[Predicate], alias: str
    ) -> StreamHandle:
        filters = tuple(filters)
        default_alias = alias

        def check(event: Item) -> bool:
            # Each pushed-down conjunct references exactly one alias —
            # possibly a bare iteration alias differing from the
            # indexed scan alias — so bind per conjunct.
            for pred in filters:
                bind = next(iter(pred.aliases()), default_alias)
                if not pred.evaluate({bind: event}):
                    return False
            return True

        # Generated row filter of the same conjunction; the filter
        # operator runs it on every batch (``check`` stays the
        # reference it is tested against). ``None`` when a conjunct is
        # outside the closed predicate AST.
        check.keep = compile_mask(filters)  # type: ignore[attr-defined]
        if check.keep is None:  # type: ignore[attr-defined]
            log.debug("filter[%s] runs its closure per event: a conjunct has "
                      "no source form", alias)
        return handle.filter(check, name=f"filter[{alias}]")

    def _compile_join(self, node: WindowJoin) -> StreamHandle:
        left = self.compile(node.left)
        right = self.compile(node.right)
        theta = _make_theta(node)
        keys = None
        if node.equi_keys:
            left_keys = tuple(lk for lk, _rk in node.equi_keys)
            right_keys = tuple(rk for _lk, rk in node.equi_keys)
            keys = (
                _make_key_fn(node.left.aliases, left_keys),
                _make_key_fn(node.right.aliases, right_keys),
            )
        emit_ts: Literal["min", "max"] = "min" if node.emit_ts == "min" else "max"
        if node.strategy is WindowStrategy.INTERVAL:
            bounds = (
                IntervalBounds.sequence(node.window_size)
                if node.ordered
                else IntervalBounds.conjunction(node.window_size)
            )
            return left.interval_join(
                right, bounds=bounds, theta=theta, keys=keys, emit_ts=emit_ts
            )
        window = WindowSpec(size=node.window_size, slide=node.window_slide)
        return left.window_join(
            right,
            window=window,
            theta=theta,
            keys=keys,
            emit_ts=emit_ts,
            emit_duplicates=self.options.emit_duplicates,
        )

    def _compile_multiway(self, node: MultiWayJoin) -> StreamHandle:
        from repro.asp.operators.multiway import MultiWayWindowJoin

        handles = [self._compile_scan(scan) for scan in node.parts]
        aliases = node.aliases
        conjuncts = node.extra_theta

        def theta(events: Sequence[Event]) -> bool:
            binding = dict(zip(aliases, events))
            return all(p.evaluate(binding) for p in conjuncts)

        operator = MultiWayWindowJoin(
            arity=len(node.parts),
            window=WindowSpec(size=node.window_size, slide=node.window_slide),
            ordered=node.ordered,
            theta=theta if conjuncts else None,
            key_fn=_attribute_key_fn(node.key_attribute),
        )
        join_node = self.env.flow.add_operator(operator)
        for port, handle in enumerate(handles):
            self.env.flow.connect(handle._node_id, join_node, port=port)
        return StreamHandle(self.env, join_node)

    def _compile_aggregate(self, node: CountAggregate) -> StreamHandle:
        source = self.compile(node.input)
        window = WindowSpec(size=node.window_size, slide=node.window_slide)
        key_fn = _attribute_key_fn(node.key_attribute)
        alias = node.input.aliases[0]
        output_type = f"ITER[{alias}]"
        if node.flavour == "udf" and node.condition is not None:
            condition = node.condition
            minimum = node.minimum
            event_type = (
                node.input.event_type if isinstance(node.input, StreamScan) else alias
            )

            def run_udf(pairs):
                """Longest run satisfying the inter-event condition; emit
                its length when it reaches the threshold (approximate O2
                variant, Section 4.3.2)."""
                if not pairs:
                    return []
                best = run = 1
                prev = Event(event_type, ts=pairs[0][0], value=pairs[0][1])
                for ts, value in pairs[1:]:
                    cur = Event(event_type, ts=ts, value=value)
                    run = run + 1 if condition(prev, cur) else 1
                    prev = cur
                    if run > best:
                        best = run
                return [float(best)] if o2_threshold_met(best, minimum) else []

            return source.window_udf(
                window, run_udf, key_fn=key_fn, output_type=output_type
            )
        aggregated = source.window_aggregate(
            window, function="count", key_fn=key_fn, output_type=output_type
        )
        minimum = node.minimum
        return aggregated.filter(
            lambda item: o2_threshold_met(item.value, minimum),
            name=f"count>={minimum}",
        )

    def _compile_kleene(self, node: KleeneIterate) -> StreamHandle:
        source = self.compile(node.input)
        window = WindowSpec(size=node.window_size, slide=node.window_slide)
        # emit_ts="min" matches the join chain's partial-match convention
        # (ComplexEvent.ts = ts_b), keeping the exact operator
        # frame-identical to the m-1 self-join mapping for bounded ITER.
        return source.kleene_iterate(
            window,
            minimum=node.minimum,
            unbounded=node.unbounded,
            condition=node.condition,
            key_fn=_attribute_key_fn(node.key_attribute),
            emit_ts="min",
        )

    def _compile_nseq_prepare(self, node: NseqPrepare) -> StreamHandle:
        first = self._compile_scan(node.first)
        negated = self._compile_scan(node.negated)
        unioned = first.union(negated)
        return unioned.next_occurrence(
            positive_type=node.first.event_type,
            negated_type=node.negated.event_type,
            window_size=node.window_size,
            keyed=node.keyed,
        )

    def _compile_permute(self, node: Permute) -> StreamHandle:
        """Stateless map restoring the canonical constituent order after a
        join reorder, so every match keeps its original ``dedup_key``."""
        source = self.compile(node.input)
        order = node.order

        def permute(item: Item) -> Item:
            if not isinstance(item, ComplexEvent):
                return item
            # A permutation keeps the match's span and size.
            ce = ComplexEvent.from_parts(
                tuple(item.events[i] for i in order),
                item.ts_b,
                item.ts_e,
                item.ts,
                item.size_bytes,
            )
            ce.detection_ts = item.detection_ts
            return ce

        return source.map(
            permute, name=f"permute[{','.join(map(str, order))}]"
        )

    def _compile_post_filter(self, node: PostFilter) -> StreamHandle:
        source = self.compile(node.input)
        aliases = node.input.aliases
        predicates: tuple[Predicate, ...] = node.predicates

        def check(item: Item) -> bool:
            events = constituents(item)
            binding = _binding_of(aliases, events)
            return all(p.evaluate(binding) for p in predicates)

        return source.filter(check, name="post-filter")


class TranslatedQuery:
    """An executable mapped query: dataflow + plan + result access."""

    def __init__(
        self,
        pattern: Pattern,
        plan: LogicalPlan,
        env: StreamEnvironment,
        output: StreamHandle,
        options: TranslationOptions | None = None,
        sources: Mapping[str, Source] | None = None,
    ):
        self.pattern = pattern
        self.plan = plan
        self.env = env
        self.output = output
        self.options = options or TranslationOptions()
        self.sources = dict(sources) if sources is not None else {}
        self.sink: Sink | None = None
        #: The pre-flight static analysis report (``analyze=True`` compiles).
        self.analysis: AnalysisReport | None = None

    def attach_sink(self, sink: Sink | None = None) -> Sink:
        self.sink = self.output.sink(sink)
        return self.sink

    def execute(
        self,
        memory_budget_bytes: int | None = None,
        watermark_interval: int | None = None,
        sample_every: int = 1_000,
        max_out_of_orderness: int = 0,
        backend=None,
        checkpoint_interval: int | None = None,
        checkpoint_store=None,
        fault_plan=None,
        max_restarts: int = 3,
        batch_size: int = 1,
    ) -> RunResult:
        if self.sink is None:
            self.attach_sink(CollectSink())
        interval = watermark_interval or self.plan.window_slide
        result = self.env.execute(
            memory_budget_bytes=memory_budget_bytes,
            watermark_interval=interval,
            sample_every=sample_every,
            max_out_of_orderness=max_out_of_orderness,
            backend=backend,
            checkpoint_interval=checkpoint_interval,
            checkpoint_store=checkpoint_store,
            fault_plan=fault_plan,
            max_restarts=max_restarts,
            batch_size=batch_size,
        )
        if self.analysis is not None:
            # Static analysis and runtime observability share one
            # machine-readable surface (the repro.metrics/v1 report).
            result.metrics["analysis"] = self.analysis.summary()
        # The chosen plan (and its rule trace, when the optimizer ran)
        # rides along so a finished run is auditable after the fact.
        result.metrics["plan"] = self.plan.summary()
        return result

    def matches(self, start: int = 0) -> list[ComplexEvent]:
        """The sink's items as matches, from its ``start``-th item on."""
        if not isinstance(self.sink, CollectSink):
            raise TranslationError("matches() requires a CollectSink")
        out: list[ComplexEvent] = []
        for item in self.sink.items[start:]:
            if isinstance(item, ComplexEvent):
                out.append(item)
            else:
                # Single-event matches (disjunction, O2 aggregates).
                out.append(ComplexEvent((item,)))
        return out

    def projected_matches(self) -> list[dict[str, Any]]:
        """Matches with the pattern's RETURN clause applied.

        ``RETURN *`` (the default) concatenates every attribute of every
        participating event, prefixed with its alias (the paper's default
        output definition); an explicit projection list returns exactly
        those ``alias.attribute`` entries. Aggregate outputs (O2) expose
        their synthetic event under the plan's output alias.
        """
        aliases = self.plan.root.aliases
        returns = self.pattern.returns
        out: list[dict[str, Any]] = []
        for match in self.matches():
            binding = dict(zip(aliases, match.events))
            if returns.is_star:
                row: dict[str, Any] = {}
                for alias, event in binding.items():
                    for attr_name, value in event.as_dict().items():
                        row[f"{alias}.{attr_name}"] = value
            else:
                row = {}
                for item in returns.projection:
                    alias, _, attr_name = item.partition(".")
                    if not attr_name:
                        raise TranslationError(
                            f"RETURN entry {item!r} must be alias.attribute"
                        )
                    if alias not in binding:
                        raise TranslationError(
                            f"RETURN references unknown alias '{alias}' "
                            f"(available: {list(binding)})"
                        )
                    row[item] = binding[alias][attr_name]
            row["ts_b"], row["ts_e"] = match.ts_b, match.ts_e
            out.append(row)
        return out

    def explain(self) -> str:
        return self.plan.explain() + "\n\n" + self.env.explain()


@contextmanager
def _blame(index: int) -> Iterator[None]:
    """Tag a compile failure with the position of the pattern it came
    from, so the caller of a batch can say which query failed."""
    try:
        yield
    except ReproError as exc:
        exc.pattern_index = index
        raise


def compile_patterns(
    patterns: Sequence[Pattern],
    sources: Mapping[str, Source],
    options: TranslationOptions | Sequence[TranslationOptions] | None = None,
    registry: TypeRegistry | None = None,
    analyze: bool = True,
    optimize: str = "off",
    cost_model: CostModel | None = None,
    rules=None,
    scan_cache: dict | None = None,
    sinks: Sequence[Sink] | None = None,
) -> tuple[list[TranslatedQuery], "SharingReport | None"]:
    """The compile pipeline: patterns in, verified queries out (Section 4).

    The one place that sequences the phases, for one pattern or many
    over one :class:`StreamEnvironment`:

    1. **build** each pattern's logical plan (Table 1);
    2. **rewrite** it under ``cost_model``, or else the static model when
       ``optimize`` is ``"static"``; ``"off"`` skips the phase. Rewritten
       plans stay byte-identical in output (a metrics-fed model comes from
       :func:`~repro.mapping.optimizer.resolve_cost_model`);
    3. **prove** which scan prefixes of different patterns are mergeable
       (:func:`~repro.analysis.sharing.prove_sharability`; a single
       pattern has nothing to prove);
    4. **lower** every plan into the shared environment, attaching its
       sink when ``sinks`` has one per pattern;
    5. **verify**, unless ``analyze=False``: the static plan verifier
       (:func:`~repro.analysis.analyze_queries`) runs per query on the
       plan that was lowered and once on the dataflow that will execute
       — what it certifies is what runs. Each query keeps its report as
       ``analysis``; the first error-level finding raises
       :class:`~repro.errors.StaticAnalysisError` (a
       :class:`TranslationError`), so a statically unsafe plan never
       reaches execution.

    ``scan_cache`` decides what the lowered plans share: ``None`` (the
    :func:`translate` spelling) lowers every scan on its own; a dict (the
    :func:`~repro.mapping.multiquery.translate_many` spelling) is filled
    with one entry per distinct filtered scan, reused within and across
    patterns as far as the proof of phase 3 allows.

    Returns the queries and the sharability proof (``None`` for a single
    pattern). A failure caused by one pattern carries that pattern's
    position as ``pattern_index``.
    """
    if not patterns:
        raise TranslationError("compiling requires at least one pattern")
    if options is None or isinstance(options, TranslationOptions):
        per_pattern = [options or TranslationOptions()] * len(patterns)
    else:
        per_pattern = list(options)
        if len(per_pattern) != len(patterns):
            raise TranslationError(
                f"{len(patterns)} patterns but {len(per_pattern)} option sets"
            )
    model = (
        cost_model
        if cost_model is not None
        else resolve_cost_model(optimize, registry)
    )
    plans: list[LogicalPlan] = []
    for index, (pattern, opts) in enumerate(zip(patterns, per_pattern)):
        with _blame(index):
            plan = build_plan(pattern, opts, registry=registry)
            if model is not None:
                plan = optimize_plan(plan, opts, model, rules=rules)
        plans.append(plan)

    # Sharability proof: the compiler only merges what the prover proved.
    # Names are disambiguated when patterns collide so the (query, alias)
    # keys stay unique.
    names = [p.name for p in patterns]
    if len(set(names)) != len(names):
        names = [f"{name}#{i}" for i, name in enumerate(names)]
    sharing = None
    subsumed: dict[tuple[str, str], tuple[Predicate, bool]] = {}
    if len(patterns) > 1:
        from repro.analysis.sharing import prove_sharability

        sharing = prove_sharability(
            list(zip(names, plans, per_pattern)),
            target=f"multi-query[{len(patterns)}]",
        )
        for group in sharing.groups:
            if group.level != "subsumed" or group.shared_bound is None:
                continue
            pred = group.shared_bound.as_predicate(group.shared_alias)
            for query, alias, residual in group.residuals:
                subsumed[(query, alias)] = (pred, bool(residual))

    env = StreamEnvironment(
        name=f"{patterns[0].name}[{per_pattern[0].label()}]"
        if scan_cache is None
        else f"multi-query[{len(patterns)}]"
    )
    compiler = _Compiler(env, sources, scan_cache, subsumed)
    queries: list[TranslatedQuery] = []
    for index, (pattern, opts, plan, name) in enumerate(
        zip(patterns, per_pattern, plans, names)
    ):
        with _blame(index):
            output = compiler.lower(plan, opts, name)
        query = TranslatedQuery(pattern, plan, env, output, opts, sources)
        if sinks is not None:
            query.attach_sink(sinks[index])
        queries.append(query)
    if analyze:
        from repro.analysis import analyze_queries

        reports = analyze_queries(queries, registry=registry)
        for index, (query, report) in enumerate(zip(queries, reports)):
            query.analysis = report
            with _blame(index):
                report.raise_for_errors()
    return queries, sharing


def translate(
    pattern: Pattern,
    sources: Mapping[str, Source],
    options: TranslationOptions | None = None,
    registry: TypeRegistry | None = None,
    analyze: bool = True,
    optimize: str = "off",
    cost_model: CostModel | None = None,
    rules=None,
) -> TranslatedQuery:
    """Map a CEP pattern onto an executable ASP dataflow (Section 4).

    :func:`compile_patterns` for one pattern, every scan lowered on its
    own; the arguments mean what they mean there.
    """
    queries, _sharing = compile_patterns(
        [pattern],
        sources,
        options,
        registry=registry,
        analyze=analyze,
        optimize=optimize,
        cost_model=cost_model,
        rules=rules,
    )
    return queries[0]

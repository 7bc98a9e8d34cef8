"""Multi-query execution with shared scans — an ASP-side capability.

The paper's related-work discussion (Section 6) lists missing
*multi-query optimization* among the limitations that keep traditional
CEP systems out of cloud deployments: a serial NFA per pattern cannot
share work. Once patterns are mapped to ASP operators, the standard
multi-query optimizations of the target domain apply; this module
implements the first of them, common subexpression elimination at the
scan level:

* all patterns of a batch share one physical source node per event type;
* identical *normalized* pushed-down filter sets on the same type share
  one filter operator (normalization is the ``order-scan-filters``
  selectivity ordering, so plans meet here whether or not phase 2 ran);
* filter sets proven **subsumed** by the sharability prover
  (:func:`repro.analysis.sharing.prove_sharability`) — single-attribute
  range bounds on one attribute/direction, e.g. ``value > 80`` vs
  ``value > 50`` — share one scan carrying the *weakest* bound, with
  each query re-applying its own residual filter on top;
* each pattern keeps its own joins and its own sink, and the whole batch
  runs as a single dataflow over one pass of the input.

``translate_many`` returns a :class:`MultiQuery` whose ``sharing`` field
carries the machine-readable proof (groups plus RA81x near-misses);
executing it once populates every pattern's sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.asp.runtime import RunResult
from repro.asp.operators.sink import CollectSink, Sink
from repro.asp.operators.source import Source
from repro.asp.stream import StreamEnvironment, StreamHandle
from repro.errors import TranslationError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer import optimize_plan, resolve_cost_model
from repro.mapping.optimizer.build import build_plan
from repro.mapping.optimizer.cost import predicate_selectivity
from repro.mapping.optimizer.ir import LogicalPlan, StreamScan
from repro.mapping.translator import _Compiler
from repro.sea.ast import Pattern


def _scan_signature(node: StreamScan) -> tuple[str, ...]:
    """Rule-normalized filter signature — byte-compatible with the
    sharability prover's :class:`~repro.analysis.sharing.ScanPipeline`."""
    return tuple(
        p.render()
        for p in sorted(
            node.filters, key=lambda p: (predicate_selectivity(p), p.render())
        )
    )


class _SharingCompiler(_Compiler):
    """Compiler variant that reuses scans across patterns: identical
    normalized signatures share the whole pipeline; proven-subsumed scans
    share the weakest-bound filter and re-apply their residual on top."""

    def __init__(self, env, sources, shared_scans: dict,
                 shared_source_handles: dict, options=None,
                 shared_physical_handles: dict | None = None,
                 subsumed_shares: dict | None = None):
        # ``plan`` is set per pattern via :meth:`with_plan`.
        super().__init__(env, sources, plan=None, options=options,
                         physical_handles=shared_physical_handles)
        self._shared_scans = shared_scans
        # One physical source node per event type across ALL patterns.
        self._source_handles = shared_source_handles
        #: (query, alias) -> (shared predicate, has residual filters).
        self._subsumed = subsumed_shares or {}
        self._query = ""

    def with_plan(self, plan: LogicalPlan, query: str = "") -> "_SharingCompiler":
        self.plan = plan
        self._query = query or plan.pattern_name
        return self

    def _compile_scan(self, node: StreamScan) -> StreamHandle:
        key = (node.event_type, _scan_signature(node))
        handle = self._shared_scans.get(key)
        if handle is not None:
            return handle
        share = self._subsumed.get((self._query, node.alias))
        if share is not None:
            shared_pred, has_residual = share
            base_key = (node.event_type, (shared_pred.render(),))
            base = self._shared_scans.get(base_key)
            if base is None:
                base = self._apply_filters(
                    self._source_handle(node.event_type),
                    (shared_pred,),
                    alias=f"shared[{node.event_type}]",
                )
                self._shared_scans[base_key] = base
            handle = (
                self._apply_filters(base, node.filters, node.alias)
                if has_residual
                else base
            )
        else:
            handle = super()._compile_scan(node)
        self._shared_scans[key] = handle
        return handle


@dataclass
class MultiQuery:
    """A batch of mapped queries sharing one dataflow."""

    env: StreamEnvironment
    patterns: list[Pattern]
    plans: list[LogicalPlan]
    sinks: list[Sink]
    shared_scans: dict = field(default_factory=dict)
    #: The sharability proof behind the batch's scan sharing (an
    #: :class:`~repro.analysis.sharing.SharingReport`); ``None`` for
    #: single-pattern batches, where there is nothing to prove.
    sharing: object | None = None
    result: RunResult | None = None

    def execute(self, **kwargs) -> RunResult:
        """One pass over the input serves every pattern."""
        slide = min(plan.window_slide for plan in self.plans)
        kwargs.setdefault("watermark_interval", slide)
        self.result = self.env.execute(**kwargs)
        return self.result

    def matches_of(self, index: int) -> list:
        sink = self.sinks[index]
        if not isinstance(sink, CollectSink):
            raise TranslationError("matches_of() requires CollectSink sinks")
        from repro.asp.datamodel import ComplexEvent

        out = []
        for item in sink.items:
            out.append(item if isinstance(item, ComplexEvent) else ComplexEvent((item,)))
        return out

    @property
    def num_shared_scans(self) -> int:
        return len(self.shared_scans)

    def explain(self) -> str:
        lines = [f"MultiQuery over {len(self.patterns)} patterns, "
                 f"{self.num_shared_scans} shared scan pipelines"]
        if self.sharing is not None:
            lines.append(self.sharing.render())  # type: ignore[attr-defined]
        for plan in self.plans:
            lines.append(plan.explain())
        return "\n".join(lines)


def translate_many(
    patterns: Sequence[Pattern],
    sources: Mapping[str, Source],
    options: TranslationOptions | Sequence[TranslationOptions] | None = None,
    sinks: Sequence[Sink] | None = None,
    optimize: str = "off",
    profile_from: str | None = None,
    registry=None,
) -> MultiQuery:
    """Map a batch of patterns into one shared dataflow.

    ``options`` may be a single configuration applied to every pattern or
    one per pattern. Each pattern receives its own sink (``CollectSink``
    by default, or the caller-provided ones). The batch goes through the
    same compiler phases as :func:`~repro.mapping.translator.translate`:
    build → (optional) rule-based rewrite → compile; ``optimize`` and
    ``profile_from`` select the cost model exactly as on single-pattern
    translation. Rewrites are applied per pattern *before* scan sharing,
    so two patterns whose scans only coincide after filter reordering
    still share one pipeline.
    """
    if not patterns:
        raise TranslationError("translate_many requires at least one pattern")
    if options is None or isinstance(options, TranslationOptions):
        per_pattern = [options or TranslationOptions()] * len(patterns)
    else:
        per_pattern = list(options)
        if len(per_pattern) != len(patterns):
            raise TranslationError(
                f"{len(patterns)} patterns but {len(per_pattern)} option sets"
            )
    if sinks is not None and len(sinks) != len(patterns):
        raise TranslationError(f"{len(patterns)} patterns but {len(sinks)} sinks")

    model = resolve_cost_model(optimize, registry, profile_from)

    plans: list[LogicalPlan] = []
    for pattern, opts in zip(patterns, per_pattern):
        plan = build_plan(pattern, opts)
        if model is not None:
            plan = optimize_plan(plan, opts, model, registry=registry)
        plans.append(plan)

    # Sharability proof: the compiler only merges what the prover proved.
    # Names are disambiguated when patterns collide so the (query, alias)
    # keys stay unique.
    names = [p.name for p in patterns]
    if len(set(names)) != len(names):
        names = [f"{name}#{i}" for i, name in enumerate(names)]
    report = None
    subsumed_shares: dict = {}
    if len(patterns) > 1:
        from repro.analysis.sharing import prove_sharability

        report = prove_sharability(
            list(zip(names, plans, per_pattern)),
            target=f"multi-query[{len(patterns)}]",
        )
        for group in report.groups:
            if group.level != "subsumed" or group.shared_bound is None:
                continue
            pred = group.shared_bound.as_predicate(group.shared_alias)
            for query, alias, residual in group.residuals:
                subsumed_shares[(query, alias)] = (pred, bool(residual))

    env = StreamEnvironment(name=f"multi-query[{len(patterns)}]")
    shared_scans: dict = {}
    shared_source_handles: dict = {}
    shared_physical_handles: dict = {}
    attached: list[Sink] = []
    for index, (pattern, opts, plan, name) in enumerate(
        zip(patterns, per_pattern, plans, names)
    ):
        compiler = _SharingCompiler(
            env, sources, shared_scans, shared_source_handles, opts,
            shared_physical_handles, subsumed_shares,
        ).with_plan(plan, query=name)
        output = compiler.compile(plan.root)
        sink = sinks[index] if sinks is not None else CollectSink(
            name=f"sink[{pattern.name}]"
        )
        output.sink(sink)
        attached.append(sink)
    return MultiQuery(
        env=env,
        patterns=list(patterns),
        plans=plans,
        sinks=attached,
        shared_scans=shared_scans,
        sharing=report,
    )

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
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.asp.datamodel import ComplexEvent, TypeRegistry
from repro.asp.runtime import RunResult
from repro.asp.operators.sink import CollectSink, Sink
from repro.asp.operators.source import Source
from repro.asp.stream import StreamEnvironment
from repro.errors import TranslationError
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer.cost import CostModel
from repro.mapping.optimizer.ir import LogicalPlan
from repro.mapping.translator import TranslatedQuery, compile_patterns
from repro.sea.ast import Pattern

if TYPE_CHECKING:  # pragma: no cover - the analysis package sits above mapping
    from repro.analysis.sharing import SharingReport


@dataclass
class MultiQuery:
    """A batch of mapped queries sharing one dataflow."""

    env: StreamEnvironment
    queries: list[TranslatedQuery]
    shared_scans: dict = field(default_factory=dict)
    #: The sharability proof behind the batch's scan sharing; ``None``
    #: for single-pattern batches, where there is nothing to prove.
    sharing: "SharingReport | None" = None
    result: RunResult | None = None

    @property
    def patterns(self) -> list[Pattern]:
        return [query.pattern for query in self.queries]

    @property
    def plans(self) -> list[LogicalPlan]:
        return [query.plan for query in self.queries]

    @property
    def sinks(self) -> list[Sink | None]:
        return [query.sink for query in self.queries]

    def execute(self, **kwargs) -> RunResult:
        """One pass over the input serves every pattern."""
        slide = min(plan.window_slide for plan in self.plans)
        kwargs.setdefault("watermark_interval", slide)
        self.result = self.env.execute(**kwargs)
        return self.result

    def matches_of(self, index: int) -> list[ComplexEvent]:
        return self.queries[index].matches()

    @property
    def num_shared_scans(self) -> int:
        return len(self.shared_scans)

    def explain(self) -> str:
        lines = [f"MultiQuery over {len(self.queries)} patterns, "
                 f"{self.num_shared_scans} shared scan pipelines"]
        if self.sharing is not None:
            lines.append(self.sharing.render())
        for plan in self.plans:
            lines.append(plan.explain())
        return "\n".join(lines)


def translate_many(
    patterns: Sequence[Pattern],
    sources: Mapping[str, Source],
    options: TranslationOptions | Sequence[TranslationOptions] | None = None,
    sinks: Sequence[Sink] | None = None,
    optimize: str = "off",
    registry: TypeRegistry | None = None,
    analyze: bool = True,
    cost_model: CostModel | None = None,
    rules=None,
) -> MultiQuery:
    """Map a batch of patterns into one shared dataflow.

    :func:`~repro.mapping.translator.compile_patterns` with a scan
    cache and one sink per pattern (``CollectSink`` by default, or the
    caller-provided ones). ``options`` may be a single configuration
    applied to every pattern or one per pattern; every other argument
    means what it means on :func:`~repro.mapping.translator.translate`.
    Rewrites are applied per pattern *before* scan sharing, so two
    patterns whose scans only coincide after filter reordering still
    share one pipeline.
    """
    if sinks is None:
        sinks = [CollectSink(name=f"sink[{p.name}]") for p in patterns]
    elif len(sinks) != len(patterns):
        raise TranslationError(f"{len(patterns)} patterns but {len(sinks)} sinks")
    shared_scans: dict = {}
    queries, sharing = compile_patterns(
        patterns,
        sources,
        options,
        registry=registry,
        analyze=analyze,
        optimize=optimize,
        cost_model=cost_model,
        rules=rules,
        scan_cache=shared_scans,
        sinks=sinks,
    )
    return MultiQuery(queries[0].env, queries, shared_scans, sharing)

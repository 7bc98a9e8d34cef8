"""Multi-query sharability prover (RA81x).

Given N submitted queries (their phase-1/2 logical plans plus
translation options), decide *statically* which scan/filter/window-assign
prefixes are equivalent — modulo the phase-2 rewrite rules — and
therefore mergeable into one shared pipeline, the proof layer behind
shared multi-query execution (ROADMAP item 3, SPECTRE in PAPERS.md).

Three share levels, strongest first:

* **exact** — two scans of the same stream whose pushdown filter sets
  are syntactically identical after rule normalization (the
  ``order-scan-filters`` selectivity ordering): the whole scan + filter
  pipeline is one physical operator. This is what
  :func:`repro.mapping.multiquery.translate_many` has always shared.
* **subsumed** — filters differ but each is a single-attribute range
  bound on one common attribute in one common direction (``value > 80``
  vs ``value > 50``): the merged scan carries the *weakest* bound and
  each query re-applies its own residual filter. Sound because each
  original filter implies the shared one, so the shared scan passes a
  superset of every member's events and the residual restores exactness.
* **window** — a group (exact or subsumed) whose members also agree on
  window extents additionally shares window assignment.

Near-misses are reported, not silently skipped: RA811 names the blocking
reason for unmergeable same-stream prefixes, RA812 flags mergeable scans
whose differing window extents block window-level sharing, and RA813 is
an *error* when members of one shared group demand different O3
partition attributes — a merged keyed route cannot satisfy both, so the
co-submission is rejected before anything runs. (Per-plan partition
proofs, RA4xx, still run on every submission individually.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.mapping.optimizer.cost import ordered_filters
from repro.mapping.optimizer.ir import LogicalPlan, StreamScan
from repro.sea.predicates import Attr, Compare, Const, Predicate

#: Range-bound comparison operators by direction: a "gt" bound keeps the
#: upper tail, an "lt" bound keeps the lower tail.
_GT_OPS = {">": False, ">=": True}  # op -> bound value itself passes
_LT_OPS = {"<": False, "<=": True}


@dataclass(frozen=True)
class Bound:
    """One single-attribute range bound ``alias.attr <op> const``."""

    attribute: str
    direction: str  # "gt" | "lt"
    op: str
    value: float

    def render(self, alias: str) -> str:
        return f"{alias}.{self.attribute} {self.op} {self.value}"

    def as_predicate(self, alias: str) -> Compare:
        """Materialize the bound as a predicate tree (for compilers that
        build the shared filter operator from a proof)."""
        return Compare(self.op, Attr(alias, self.attribute), Const(self.value))

    def accepts_superset_of(self, other: "Bound") -> bool:
        """True when every value passing ``other`` also passes ``self``."""
        if (self.attribute, self.direction) != (other.attribute, other.direction):
            return False
        if self.direction == "gt":
            if self.value < other.value:
                return True
            return self.value == other.value and (
                self.op == ">=" or self.op == other.op
            )
        if self.value > other.value:
            return True
        return self.value == other.value and (self.op == "<=" or self.op == other.op)


def _as_bound(pred: Predicate, alias: str) -> Optional[Bound]:
    """Parse ``alias.attr <op> const`` (either side) into a :class:`Bound`."""
    if not isinstance(pred, Compare):
        return None
    op, left, right = pred.op, pred.left, pred.right
    if isinstance(left, Const) and isinstance(right, Attr):
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        if op not in flip:
            return None
        op, left, right = flip[op], right, left
    if not (isinstance(left, Attr) and isinstance(right, Const)):
        return None
    if left.alias != alias or not isinstance(right.value, (int, float)):
        return None
    if op in _GT_OPS:
        return Bound(left.attribute, "gt", op, float(right.value))
    if op in _LT_OPS:
        return Bound(left.attribute, "lt", op, float(right.value))
    return None


def _tightest(bounds: Sequence[Bound]) -> Bound:
    """The effective bound of several same-attribute same-direction
    conjuncts (``> 80 AND > 70`` is ``> 80``)."""
    best = bounds[0]
    for bound in bounds[1:]:
        if best.accepts_superset_of(bound):
            best = bound
    return best


def _weakest(bounds: Sequence[Bound]) -> Bound:
    """The most permissive bound — what the merged shared scan keeps."""
    weakest = bounds[0]
    for bound in bounds[1:]:
        if bound.accepts_superset_of(weakest):
            weakest = bound
    return weakest


@dataclass(frozen=True)
class ScanPipeline:
    """One query's filtered scan of one stream, rule-normalized."""

    query: str
    alias: str
    event_type: str
    filters: tuple[Predicate, ...]
    window_size: int
    window_slide: int
    partition_attribute: Optional[str]

    @property
    def signature(self) -> tuple[str, ...]:
        return tuple(p.render() for p in self.filters)

    def effective_bound(self) -> Optional[Bound]:
        """The pipeline's filters as one range bound, or ``None`` when the
        filters are not all bounds on one attribute/direction."""
        if not self.filters:
            return None
        bounds = [_as_bound(p, self.alias) for p in self.filters]
        if any(b is None for b in bounds):
            return None
        keys = {(b.attribute, b.direction) for b in bounds if b is not None}
        if len(keys) != 1:
            return None
        return _tightest([b for b in bounds if b is not None])


@dataclass(frozen=True)
class SharedPrefix:
    """One proven mergeable group of scan pipelines."""

    event_type: str
    level: str  # "exact" | "subsumed"
    members: tuple[tuple[str, str], ...]  # (query, alias)
    shared_filters: tuple[str, ...]
    #: (query, alias, residual filter renders) — empty residual means the
    #: shared pipeline is the member's whole prefix.
    residuals: tuple[tuple[str, str, tuple[str, ...]], ...]
    windows_aligned: bool
    #: Subsumed groups only: the weakest bound itself plus the alias its
    #: rendered form uses — what a compiler needs to materialize the
    #: shared filter operator from this proof.
    shared_alias: str = ""
    shared_bound: Optional[Bound] = None

    @property
    def queries(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for query, _alias in self.members:
            seen.setdefault(query)
        return tuple(seen)

    def describe(self) -> str:
        shared = " AND ".join(self.shared_filters) or "no filters"
        wins = "scan+filter+window" if self.windows_aligned else "scan+filter"
        return (
            f"{self.event_type}: {self.level} share of [{shared}] across "
            f"{', '.join(self.queries)} ({wins})"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "event_type": self.event_type,
            "level": self.level,
            "queries": list(self.queries),
            "members": [list(m) for m in self.members],
            "shared_filters": list(self.shared_filters),
            "residuals": [
                {"query": q, "alias": a, "filters": list(f)}
                for q, a, f in self.residuals
            ],
            "windows_aligned": self.windows_aligned,
        }


@dataclass(frozen=True)
class SharingReport:
    """Machine-readable outcome of one sharability proof."""

    target: str
    groups: tuple[SharedPrefix, ...]
    diagnostics: tuple[Diagnostic, ...]
    pipelines: int

    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)

    def render(self) -> str:
        lines = [
            f"{self.target}: {len(self.groups)} shared prefix group(s) over "
            f"{self.pipelines} scan pipeline(s)"
        ]
        for group in self.groups:
            lines.append(f"  share: {group.describe()}")
        lines.extend("  " + d.render() for d in self.diagnostics)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "ok": self.ok(),
            "pipelines": self.pipelines,
            "groups": [g.as_dict() for g in self.groups],
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


def scan_pipelines(
    query: str, plan: LogicalPlan, options: Any = None
) -> list[ScanPipeline]:
    """Every scan prefix of one plan, rule-normalized for comparison."""
    partition = getattr(options, "partition_attribute", None)
    out = []
    for scan in plan.scans():
        out.append(
            ScanPipeline(
                query=query,
                alias=scan.alias,
                event_type=scan.event_type,
                filters=ordered_filters(scan.filters),
                window_size=plan.window_size,
                window_slide=plan.window_slide,
                partition_attribute=partition,
            )
        )
    return out


def _window_diagnostics(
    group_members: Sequence[ScanPipeline], level: str, event_type: str
) -> tuple[bool, list[Diagnostic]]:
    windows = {(p.window_size, p.window_slide) for p in group_members}
    if len(windows) == 1:
        return True, []
    spans = ", ".join(
        f"{q}={size}ms/{slide}ms"
        for q, size, slide in sorted(
            {(p.query, p.window_size, p.window_slide) for p in group_members}
        )
    )
    return False, [
        warning(
            "RA812",
            f"scans of {event_type} are {level}-mergeable but window extents "
            f"differ ({spans}); scan+filter share only, window assignment "
            "stays per query",
            event_type,
        )
    ]


def _partition_diagnostics(
    group_members: Sequence[ScanPipeline], event_type: str
) -> list[Diagnostic]:
    attrs = sorted({p.partition_attribute for p in group_members if p.partition_attribute})
    if len(attrs) <= 1:
        return []
    owners = ", ".join(
        f"{p.query}→{p.partition_attribute}"
        for p in group_members
        if p.partition_attribute
    )
    return [
        error(
            "RA813",
            f"shared {event_type} prefix needs a single O3 partition key but "
            f"members demand {', '.join(attrs)} ({owners}); a merged keyed "
            "route cannot satisfy both — submit separately or align keys",
            event_type,
        )
    ]


def _blocking_reason(a: ScanPipeline, b: ScanPipeline) -> str:
    bound_a, bound_b = a.effective_bound(), b.effective_bound()
    if bound_a is None or bound_b is None:
        culprit = a if bound_a is None else b
        return (
            f"filters of {culprit.query} ({' AND '.join(culprit.signature) or 'none'}) "
            "are not single-attribute range bounds"
        )
    if bound_a.attribute != bound_b.attribute:
        return (
            f"bounds constrain different attributes "
            f"({a.query}: {bound_a.attribute}, {b.query}: {bound_b.attribute})"
        )
    return (
        f"bounds pull in opposite directions "
        f"({a.query}: {bound_a.render(a.alias)}, {b.query}: {bound_b.render(b.alias)})"
    )


def prove_sharability(
    submissions: Sequence[tuple[str, LogicalPlan, Any]],
    target: str = "co-submission",
) -> SharingReport:
    """Prove which scan prefixes of N submissions are mergeable.

    ``submissions`` holds ``(query_name, logical_plan, options)`` triples
    — plans may be phase-1 output or phase-2 optimized; normalization
    makes both compare equal. Groups require at least two *distinct*
    queries (intra-query scan dedup is the compiler's job, not a
    cross-query proof).
    """
    pipelines: list[ScanPipeline] = []
    for name, plan, options in submissions:
        pipelines.extend(scan_pipelines(name, plan, options))

    by_type: dict[str, list[ScanPipeline]] = {}
    for pipe in pipelines:
        by_type.setdefault(pipe.event_type, []).append(pipe)

    groups: list[SharedPrefix] = []
    diags: list[Diagnostic] = []
    for event_type in sorted(by_type):
        members = by_type[event_type]
        if len({p.query for p in members}) < 2:
            continue
        classes: dict[tuple[str, ...], list[ScanPipeline]] = {}
        for pipe in members:
            classes.setdefault(pipe.signature, []).append(pipe)

        # Exact groups: identical normalized filter sets across queries.
        for signature in sorted(classes):
            cls = classes[signature]
            if len({p.query for p in cls}) < 2:
                continue
            aligned, win_diags = _window_diagnostics(cls, "exact", event_type)
            diags.extend(win_diags)
            diags.extend(_partition_diagnostics(cls, event_type))
            groups.append(
                SharedPrefix(
                    event_type=event_type,
                    level="exact",
                    members=tuple((p.query, p.alias) for p in cls),
                    shared_filters=signature,
                    residuals=tuple((p.query, p.alias, ()) for p in cls),
                    windows_aligned=aligned,
                )
            )

        if len(classes) < 2:
            continue

        # Subsumption: bucket class representatives by the (attribute,
        # direction) of their effective bound. Every bucket spanning two
        # classes and two queries shares its weakest bound independently;
        # RA811 near-misses are only the genuinely incompatible pairs —
        # across buckets, or involving a non-bound filter set.
        reps = [cls[0] for _sig, cls in sorted(classes.items())]
        buckets: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        loose: list[ScanPipeline] = []
        for rep in reps:
            bound = rep.effective_bound()
            if bound is None:
                loose.append(rep)
            else:
                buckets.setdefault(
                    (bound.attribute, bound.direction), []
                ).append(rep.signature)
        for _key, signatures in sorted(buckets.items()):
            bucket_members = [p for sig in signatures for p in classes[sig]]
            if len(signatures) < 2 or len({p.query for p in bucket_members}) < 2:
                continue
            bounds = [p.effective_bound() for p in bucket_members]
            weakest = _weakest([b for b in bounds if b is not None])
            shared_alias = bucket_members[0].alias
            aligned, win_diags = _window_diagnostics(
                bucket_members, "subsumed", event_type
            )
            diags.extend(win_diags)
            diags.extend(_partition_diagnostics(bucket_members, event_type))
            residuals = tuple(
                (
                    p.query,
                    p.alias,
                    ()
                    if p.effective_bound() == weakest
                    and len(p.filters) == 1
                    else p.signature,
                )
                for p in bucket_members
            )
            groups.append(
                SharedPrefix(
                    event_type=event_type,
                    level="subsumed",
                    members=tuple((p.query, p.alias) for p in bucket_members),
                    shared_filters=(weakest.render(shared_alias),),
                    residuals=residuals,
                    windows_aligned=aligned,
                    shared_alias=shared_alias,
                    shared_bound=weakest,
                )
            )
        # Near-misses: one RA811 per blocking class pair (representative
        # queries named), not one per scan pair.
        rep_key = {
            id(rep): (
                (bound.attribute, bound.direction)
                if (bound := rep.effective_bound()) is not None
                else None
            )
            for rep in reps
        }
        for i, rep_a in enumerate(reps):
            for rep_b in reps[i + 1 :]:
                if rep_a.query == rep_b.query:
                    continue
                key_a, key_b = rep_key[id(rep_a)], rep_key[id(rep_b)]
                if key_a is not None and key_a == key_b:
                    continue  # same bucket: proven mergeable above
                diags.append(
                    warning(
                        "RA811",
                        f"scans of {event_type} by {rep_a.query} and "
                        f"{rep_b.query} cannot merge: "
                        f"{_blocking_reason(rep_a, rep_b)}",
                        event_type,
                    )
                )

    return SharingReport(
        target=target,
        groups=tuple(groups),
        diagnostics=tuple(diags),
        pipelines=len(pipelines),
    )

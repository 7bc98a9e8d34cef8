"""Optimization opportunities O1–O3 (paper Section 4.3, Table 1).

* **O1 — Interval Joins** (:attr:`TranslationOptions.join_strategy` =
  ``INTERVAL``): content-based windows anchored on left-side events;
  no slide parameter, no duplicates; wins when the left stream is the
  sparse one.
* **O2 — Aggregations for iterations**
  (:attr:`TranslationOptions.iteration_strategy` = ``"aggregate"``):
  replaces the m-way self-join with a windowed count + threshold;
  approximate (one output per window); enables the Kleene+ variation;
  cannot express Kleene* (empty windows never fire).
* **O3 — Equi-Join partitioning**
  (:attr:`TranslationOptions.partition_attribute` or auto-detected
  equi predicates): turns joins into key-partitionable Equi Joins,
  unlocking parallel execution on the sharded backend.

The options compose (the paper evaluates O1+O3 and O2+O3 in Figures 4–6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OptimizationError
from repro.mapping.plan import WindowStrategy
from repro.sea.ast import Iteration, Pattern
from repro.sea.predicates import classify_conjuncts


@dataclass(frozen=True)
class TranslationOptions:
    """Knobs of the CEP-to-ASP translator.

    The defaults produce the plain FASP mapping of the paper's baseline
    evaluation (sliding window joins, join-based iterations, no
    partitioning).
    """

    #: Physical windowing of joins; ``INTERVAL`` enables O1.
    join_strategy: WindowStrategy = WindowStrategy.SLIDING
    #: ``"join"`` (Table 1 default), ``"aggregate"`` (O2, approximate) or
    #: ``"exact"`` (the exact-Kleene operator: every qualifying
    #: composition, bounded and unbounded, Eq. 12 semantics).
    iteration_strategy: str = "join"
    #: Attribute shared by all events used as Equi-Join key (O3). The
    #: paper keys by the sensor ``id``.
    partition_attribute: str | None = None
    #: Override the pattern's slide (experiments use 1 minute throughout).
    slide_override: int | None = None
    #: Let sliding window joins emit raw duplicates (Section 3.1.4 study).
    emit_duplicates: bool = False
    #: Compose flat SEQ(n)/AND(n) patterns with a single n-ary window
    #: join (the Beam capability of Section 4.2.2) instead of n-1
    #: consecutive binary joins.
    use_multiway_joins: bool = False

    def __post_init__(self) -> None:
        if self.iteration_strategy not in ("join", "aggregate", "exact"):
            raise OptimizationError(
                f"unknown iteration strategy '{self.iteration_strategy}'"
            )

    # -- named configurations matching the paper's evaluation labels ------

    @staticmethod
    def fasp() -> "TranslationOptions":
        """Plain mapping (paper label: FASP)."""
        return TranslationOptions()

    @staticmethod
    def o1() -> "TranslationOptions":
        """Interval joins (paper label: FASP-O1)."""
        return TranslationOptions(join_strategy=WindowStrategy.INTERVAL)

    @staticmethod
    def o2() -> "TranslationOptions":
        """Aggregation-based iterations (paper label: FASP-O2)."""
        return TranslationOptions(iteration_strategy="aggregate")

    @staticmethod
    def o3(partition_attribute: str = "id") -> "TranslationOptions":
        """Equi-join key partitioning (paper label: FASP-O3)."""
        return TranslationOptions(partition_attribute=partition_attribute)

    @staticmethod
    def o1_o3(partition_attribute: str = "id") -> "TranslationOptions":
        return TranslationOptions(
            join_strategy=WindowStrategy.INTERVAL,
            partition_attribute=partition_attribute,
        )

    @staticmethod
    def o2_o3(partition_attribute: str = "id") -> "TranslationOptions":
        return TranslationOptions(
            iteration_strategy="aggregate",
            partition_attribute=partition_attribute,
        )

    @staticmethod
    def from_flags(
        o1: bool = False,
        o2: bool = False,
        iter: str | None = None,
        o3: str | None = None,
        multiway: bool = False,
    ) -> "TranslationOptions":
        """The ``o1``/``o2``/``iter``/``o3``/``multiway`` switches of the
        command line and of a submitted query's ``options`` object; an
        explicit ``iter`` wins over the ``o2`` shorthand."""
        if o3 is not None and not isinstance(o3, str):
            raise OptimizationError(f"o3 must name an attribute, got {o3!r}")
        return TranslationOptions(
            join_strategy=WindowStrategy.INTERVAL if o1 else WindowStrategy.SLIDING,
            iteration_strategy=(
                iter if iter is not None else "aggregate" if o2 else "join"
            ),
            partition_attribute=o3 or None,
            use_multiway_joins=bool(multiway),
        )

    def label(self) -> str:
        """Evaluation label matching the paper's figure legends."""
        applied = []
        if self.join_strategy is WindowStrategy.INTERVAL:
            applied.append("O1")
        if self.iteration_strategy == "aggregate":
            applied.append("O2")
        if self.partition_attribute is not None:
            applied.append("O3")
        return "FASP" if not applied else "FASP-" + "+".join(applied)


def iteration_requires_aggregate(node: Iteration) -> bool:
    """True when ``node`` has no join mapping and O2 is mandatory.

    A bounded ``ITER^m`` has two physical mappings (m−1 self-joins, or
    the O2 windowed count); an *unbounded* iteration (Kleene+) has no
    join form — the paper maps it exclusively through O2's aggregate
    (Section 4.3.2). This predicate is the single authority consulted by
    phase 1 of the compiler, the applicability checker and the advisor,
    so they can never disagree about which iterations are forced onto
    the aggregate path.
    """
    return bool(node.minimum_occurrences)


def o2_threshold_met(count: float, minimum: int) -> bool:
    """The O2 match threshold: ``γ_count(*) >= m`` (Section 4.3.2).

    O2 emits a match only when the windowed count (or, for the UDF
    flavour, the longest qualifying run) reaches the pattern's minimum
    occurrence count ``m``. The comparison is *inclusive*; both physical
    variants (plain count and sorted-window UDF) share this predicate so
    they cannot disagree off-by-one at the boundary.
    """
    return count >= minimum


def check_applicability(pattern: Pattern, options: TranslationOptions) -> list[str]:
    """Validate option/pattern combinations; returns advisory notes.

    Raises :class:`OptimizationError` for combinations the paper rules
    out; returns human-readable notes for soft adjustments (recorded in
    the plan for reporting).
    """
    notes: list[str] = []
    root = pattern.root

    if options.iteration_strategy == "aggregate":
        iterations = [n for n in root.walk() if isinstance(n, Iteration)]
        if not iterations:
            notes.append("O2 requested but the pattern has no iteration; ignored")
        for node in iterations:
            if node.condition_kind == "consecutive":
                notes.append(
                    "O2 with an inter-event condition uses the sorted-window "
                    "UDF variant (approximate, Section 4.3.2)"
                )

    if options.partition_attribute is None:
        _single, equi, _multi = classify_conjuncts(pattern.where)
        if equi:
            notes.append(
                "equi predicates detected; joins partition by "
                + ", ".join(c.render() for c in equi)
            )

    for node in root.walk():
        if isinstance(node, Iteration) and iteration_requires_aggregate(node):
            if options.iteration_strategy == "join":
                notes.append(
                    "unbounded iteration (Kleene+) has no join mapping; "
                    "switching the iteration strategy to 'aggregate' "
                    "(Section 4.3.2) — use iteration_strategy='exact' for "
                    "the exact composition-per-match variant"
                )
    return notes

"""Deterministic fault injection — the chaos side of the harness.

A :class:`FaultPlan` is a seeded, declarative list of faults:

* ``crash`` — raise :class:`~repro.errors.InjectedFaultError` before
  source event N is injected (a simulated process kill at a consistent
  cut, i.e. between events);
* ``slow`` — add a virtual delay to one operator's processing time
  (surfaces in Figure-5 traces through the shared runtime clock, no real
  sleeping);
* ``drop`` — sever one channel so items on that edge are discarded (a
  partitioned network link).

Each crash fires exactly once per spec *across restarts*: the injector
instance survives recovery attempts, otherwise replaying past event N
would re-trigger the same crash forever.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExecutionError, InjectedFaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.graph import Dataflow

_KINDS = ("crash", "slow", "drop")


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault."""

    kind: str
    #: crash: 1-based source event count to crash before.
    at_event: int | None = None
    #: slow: operator name (``Node.name`` / ``Operator.name``).
    operator: str | None = None
    #: slow: virtual seconds added per processed item.
    delay_s: float = 0.0
    #: drop: (source operator name, target operator name) channel.
    edge: tuple[str, str] | None = None
    #: restrict the fault to one shard of a sharded run (None = any).
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'; expected {_KINDS}")
        if self.kind == "crash" and (self.at_event is None or self.at_event < 1):
            raise ValueError("crash faults need at_event >= 1")
        if self.kind == "slow" and (self.operator is None or self.delay_s <= 0):
            raise ValueError("slow faults need operator and delay_s > 0")
        if self.kind == "drop" and self.edge is None:
            raise ValueError("drop faults need edge=(source, target)")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults for one run."""

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def for_shard(self, shard_index: int) -> "FaultPlan | None":
        """The sub-plan one shard sees (None when nothing applies)."""
        kept = tuple(
            f for f in self.faults if f.shard is None or f.shard == shard_index
        )
        if not kept:
            return None
        return FaultPlan(kept, seed=self.seed)

    @staticmethod
    def crash_each_shard_once(
        shards: int, low: int, high: int, seed: int = 0
    ) -> "FaultPlan":
        """One crash per shard at a seeded offset in ``[low, high]`` —
        the CI chaos scenario (every shard dies once, all must recover)."""
        if low < 1 or high < low:
            raise ValueError("need 1 <= low <= high")
        rng = random.Random(seed)
        faults = tuple(
            FaultSpec("crash", at_event=rng.randint(low, high), shard=i)
            for i in range(shards)
        )
        return FaultPlan(faults, seed=seed)


class FaultInjector:
    """Applies a plan to a running job; lives across restart attempts."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._fired: set[int] = set()
        self.crashes_fired = 0

    # -- crash ------------------------------------------------------------

    def pending_crash_offsets(self) -> list[int]:
        """1-based offsets of crash specs that have not fired yet.

        The drive loop forces batch boundaries just before these offsets,
        so a crash fires before its event, at a consistent cut.
        """
        return [
            spec.at_event
            for idx, spec in enumerate(self.plan.faults)
            if spec.kind == "crash" and idx not in self._fired and spec.at_event
        ]

    def before_batch(self, first_event: int, last_event: int) -> None:
        """Crash when a not-yet-fired crash spec falls inside the batch.

        The batch builder cuts batches so a pending offset is always the
        *first* event of its batch; matching the whole span keeps this
        safe even for offsets registered after batching started.
        """
        for idx, spec in enumerate(self.plan.faults):
            if spec.kind != "crash" or idx in self._fired:
                continue
            if spec.at_event is not None and first_event <= spec.at_event <= last_event:
                self._fired.add(idx)
                self.crashes_fired += 1
                raise InjectedFaultError(
                    f"injected crash before event {spec.at_event}",
                    at_event=spec.at_event,
                )

    # -- slow / drop ------------------------------------------------------

    def node_delays(self, flow: "Dataflow") -> dict[int, float]:
        """Per-node virtual delay (seconds per processed item)."""
        delays: dict[int, float] = {}
        for spec in self.plan.faults:
            if spec.kind != "slow":
                continue
            matched = False
            for node in flow.operator_nodes():
                if spec.operator in (node.name, node.operator.name):
                    delays[node.node_id] = delays.get(node.node_id, 0.0) + spec.delay_s
                    matched = True
            if not matched:
                raise ExecutionError(
                    f"slow fault names unknown operator '{spec.operator}'"
                )
        return delays

    def dropped_edges(self, flow: "Dataflow") -> set[tuple[int, int]]:
        """(source_id, target_id) channel pairs to sever."""
        dropped: set[tuple[int, int]] = set()
        for spec in self.plan.faults:
            if spec.kind != "drop":
                continue
            src_name, dst_name = spec.edge
            matched = False
            for edge in flow.edges:
                src = flow.nodes[edge.source_id]
                dst = flow.nodes[edge.target_id]
                if src.name == src_name and dst.name == dst_name:
                    dropped.add((edge.source_id, edge.target_id))
                    matched = True
            if not matched:
                raise ExecutionError(
                    f"drop fault names unknown channel '{src_name}->{dst_name}'"
                )
        return dropped


def parse_fault_plan(text: str, seed: int = 0) -> FaultPlan:
    """Parse the CLI fault-plan syntax.

    ``;``-separated entries, each ``kind:key=value,key=value``::

        crash:at=250
        crash:at=250,shard=1
        slow:op=window-join,delay=0.001
        drop:from=source,to=window-join

    """
    faults: list[FaultSpec] = []
    for raw in text.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        kind, _, args_text = entry.partition(":")
        kind = kind.strip()
        args: dict[str, str] = {}
        for pair in args_text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise ExecutionError(f"malformed fault argument '{pair}' in '{entry}'")
            args[key.strip()] = value.strip()
        try:
            if kind == "crash":
                faults.append(
                    FaultSpec(
                        "crash",
                        at_event=int(args["at"]),
                        shard=int(args["shard"]) if "shard" in args else None,
                    )
                )
            elif kind == "slow":
                faults.append(
                    FaultSpec(
                        "slow",
                        operator=args["op"],
                        delay_s=float(args["delay"]),
                        shard=int(args["shard"]) if "shard" in args else None,
                    )
                )
            elif kind == "drop":
                faults.append(
                    FaultSpec(
                        "drop",
                        edge=(args["from"], args["to"]),
                        shard=int(args["shard"]) if "shard" in args else None,
                    )
                )
            else:
                raise ExecutionError(f"unknown fault kind '{kind}' in '{entry}'")
        except (KeyError, ValueError) as exc:
            raise ExecutionError(f"malformed fault spec '{entry}': {exc}") from exc
    if not faults:
        raise ExecutionError(f"fault plan '{text}' declares no faults")
    return FaultPlan(tuple(faults), seed=seed)

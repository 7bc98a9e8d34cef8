"""The unary CEP operator — the HSPS integration the paper critiques.

FlinkCEP embeds the whole pattern as *one* stateful operator in the ASP
pipeline (paper Section 1): all input streams must be unioned first, the
NFA runs inside the single operator, and only key partitioning (when the
pattern allows it) parallelizes the work. This module provides exactly
that operator so FCEP-style jobs run on the same executor, sources, and
sinks as the mapped FASP queries — the paper's "same system, excluding
cross-system differences" methodology (Section 5.1.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.asp.datamodel import Event
from repro.asp.operators.base import Item, StatefulOperator
from repro.asp.time import Watermark
from repro.cep.nfa import Nfa
from repro.cep.pattern_api import CepPattern

KeyFn = Callable[[Event], Any]

_GLOBAL = "__global__"


class CepOperator(StatefulOperator):
    """Unary operator hosting one NFA (or one NFA per key).

    ``key_fn`` enables the only parallelization dimension FCEP has
    (Section 5.1.2: "FCEP can leverage partitioning by key and otherwise
    runs on a single thread"); with it the plan is keyed, so the sharded
    backend can split the key space over shards.
    """

    kind = "cep"
    arity = 1

    def __init__(self, pattern: CepPattern, key_fn: KeyFn | None = None,
                 name: str | None = None):
        super().__init__(name or f"cep[{pattern.name}]")
        self.pattern = pattern
        self.key_fn = key_fn
        self._nfas: dict[Any, Nfa] = {}
        self._handle = None
        self.matches = 0

    @property
    def key_parallel_safe(self) -> bool:
        # A keyed NFA never combines events across keys, so hash
        # partitioning the key space partitions its state exactly.
        return self.key_fn is not None

    def state_horizon_ms(self) -> int:
        # Partial matches expire when their WITHIN window elapses.
        return self.pattern.window_size

    def setup(self, registry) -> None:
        super().setup(registry)
        self._handle = self._ensure_handle()

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = self.create_state("nfa-partial-matches")
        return self._handle

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap["nfas"] = {key: nfa.snapshot() for key, nfa in self._nfas.items()}
        snap["matches"] = self.matches
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        # All NFAs share one handle: reset it once here, then each
        # restored NFA re-accounts its own partial matches against it.
        handle = self._ensure_handle()
        handle.reset()
        self._nfas = {}
        for key, nfa_snap in snapshot["nfas"].items():
            nfa = Nfa(self.pattern, state_handle=handle)
            nfa.restore(nfa_snap)
            self._nfas[key] = nfa
        self.matches = snapshot["matches"]

    def _nfa_for(self, key: Any) -> Nfa:
        nfa = self._nfas.get(key)
        if nfa is None:
            nfa = Nfa(self.pattern, state_handle=self._ensure_handle())
            self._nfas[key] = nfa
        return nfa

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        out: list[Item] = []
        key_fn = self.key_fn
        for item in items:
            if not isinstance(item, Event):
                continue
            nfa = self._nfa_for(_GLOBAL if key_fn is None else key_fn(item))
            matches = nfa.process(item)
            self.work_units += 1 + nfa.live_partial_matches() // max(1, len(self._nfas))
            self.matches += len(matches)
            out += matches
        return out

    def on_watermark(self, watermark: Watermark) -> Iterable[Item]:
        for nfa in self._nfas.values():
            nfa.prune(watermark.value)
        return ()

    def live_partial_matches(self) -> int:
        return sum(nfa.live_partial_matches() for nfa in self._nfas.values())

    def total_nfa_work(self) -> int:
        return sum(nfa.work_units for nfa in self._nfas.values())

    def collect_metrics(self) -> dict[str, int | float]:
        metrics = super().collect_metrics()
        metrics["matches"] = self.matches
        metrics["nfa_instances"] = len(self._nfas)
        metrics["live_partial_matches"] = self.live_partial_matches()
        metrics["nfa_work_units"] = self.total_nfa_work()
        return metrics

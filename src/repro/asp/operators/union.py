"""Stream union.

The disjunction (OR) of SEA maps to the relational set union (paper
Section 4.1): both inputs are forwarded into one output stream, each
event of which is a pattern match. Union also appears as the forced
preprocessing step of the unary CEP operator (Section 5.1.2) and as the
first stage of the NSEQ mapping's UDF.

The operator is stateless; event-time ordering across the two inputs is
the executor's responsibility (it merges source streams by timestamp).
"""

from __future__ import annotations

from typing import Sequence

from repro.asp.operators.base import Item, Operator


class UnionOperator(Operator):
    """N-ary union: forward every input item unchanged."""

    kind = "union"
    reorder_safe = True

    def __init__(self, arity: int = 2, name: str | None = None):
        if arity < 1:
            raise ValueError("union arity must be >= 1")
        super().__init__(name or f"union[{arity}]")
        self.arity = arity
        self.counts = [0] * arity

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        if not 0 <= port < self.arity:
            raise ValueError(f"union received item on invalid port {port}")
        n = len(items)
        self.work_units += n
        self.counts[port] += n
        return items

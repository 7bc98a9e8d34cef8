"""Operator state with size accounting.

The paper's Section 5.2.4 argument is entirely about *state*: FlinkCEP's
NFA keeps partial matches alive under implicit windowing and exhausts
memory, while the mapped ASP queries keep bounded window buffers that are
discarded once the watermark passes. To reproduce Figure 5 and the
memory-exhaustion failures of Figure 4 we therefore track the approximate
byte size of every piece of operator state.

:class:`StateRegistry` aggregates the sizes of all state handles of a job
and enforces an optional memory budget, raising
:class:`~repro.errors.MemoryExhaustedError` when it is exceeded — the
analog of the paper's observed FlinkCEP job failures beyond 1.3M tpl/s.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import MemoryExhaustedError


class StateHandle:
    """One named piece of operator state whose size is tracked.

    Operators mutate their own data structures and report size deltas via
    :meth:`adjust`. The handle never owns the data — it is an accounting
    ledger, cheap enough to update on every event.
    """

    __slots__ = ("name", "owner", "bytes_used", "items", "peak_bytes", "peak_items")

    def __init__(self, name: str, owner: str):
        self.name = name
        self.owner = owner
        self.bytes_used = 0
        self.items = 0
        self.peak_bytes = 0
        self.peak_items = 0

    def adjust(self, delta_bytes: int, delta_items: int = 0) -> None:
        self.bytes_used += delta_bytes
        self.items += delta_items
        if self.bytes_used < 0:
            self.bytes_used = 0
        if self.items < 0:
            self.items = 0
        # Handle-local peaks power the per-operator observability view
        # (by the end of a run the terminal watermark has evicted the
        # buffers, so the final size alone would always read zero).
        if self.bytes_used > self.peak_bytes:
            self.peak_bytes = self.bytes_used
        if self.items > self.peak_items:
            self.peak_items = self.items

    def reset(self) -> None:
        self.bytes_used = 0
        self.items = 0
        self.peak_bytes = 0
        self.peak_items = 0

    def __repr__(self) -> str:
        return f"StateHandle({self.owner}/{self.name}: {self.items} items, {self.bytes_used} B)"


class StateRegistry:
    """All state handles of one running job, plus the memory budget.

    ``budget_bytes=None`` disables enforcement (the default for unit
    tests); experiments configure a budget per simulated worker.
    """

    def __init__(self, budget_bytes: int | None = None):
        self.budget_bytes = budget_bytes
        self._handles: list[StateHandle] = []
        self._peak_bytes = 0

    def create(self, name: str, owner: str) -> StateHandle:
        handle = StateHandle(name, owner)
        self._handles.append(handle)
        return handle

    def adopt(self, handle: StateHandle) -> StateHandle:
        """Attach an existing handle to this registry.

        Recovery re-runs a flow whose operators already own handles from
        the crashed attempt's registry; re-binding via ``setup`` adopts
        them into the new job's registry so budget checks and sampling
        see the restored state. Idempotent per handle.
        """
        if handle not in self._handles:
            self._handles.append(handle)
        return handle

    def total_bytes(self) -> int:
        return sum(h.bytes_used for h in self._handles)

    def total_items(self) -> int:
        return sum(h.items for h in self._handles)

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    def handles(self) -> Iterator[StateHandle]:
        return iter(self._handles)

    def by_owner(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for h in self._handles:
            out[h.owner] = out.get(h.owner, 0) + h.bytes_used
        return out

    def check_budget(self) -> None:
        """Update the peak and raise when the budget is exceeded.

        Called by the executor at a coarse cadence (not per event) to keep
        the accounting overhead negligible.
        """
        used = self.total_bytes()
        if used > self._peak_bytes:
            self._peak_bytes = used
        if self.budget_bytes is not None and used > self.budget_bytes:
            heaviest = max(self._handles, key=lambda h: h.bytes_used, default=None)
            raise MemoryExhaustedError(
                used, self.budget_bytes, heaviest.owner if heaviest else None
            )

    def snapshot(self) -> dict[str, Any]:
        return {
            "total_bytes": self.total_bytes(),
            "total_items": self.total_items(),
            "peak_bytes": self._peak_bytes,
            "by_owner": self.by_owner(),
        }

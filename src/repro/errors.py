"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Position, in the batch handed to the compile pipeline, of the
    #: pattern that caused the failure; ``None`` when no single pattern
    #: did (or the error was not raised by a compile).
    pattern_index: int | None = None


class SchemaError(ReproError):
    """A tuple or stream violates its declared schema.

    Raised, e.g., when a union is attempted between streams that are not
    union compatible, or when a predicate references an unknown attribute.
    """


class PatternSyntaxError(ReproError):
    """The declarative pattern text could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{location}")


class PatternValidationError(ReproError):
    """A parsed pattern is syntactically valid but semantically ill-formed.

    Examples: a pattern without a WITHIN clause (windows are mandatory per
    Section 3.1.4 of the paper), an ITER with m < 1, or an NSEQ whose
    negated type equals one of the positive types.
    """


class TranslationError(ReproError):
    """The CEP-to-ASP translator cannot map a pattern to a query plan."""


class OptimizationError(ReproError):
    """An optimization (O1/O2/O3) is not applicable to the given pattern."""


class StaticAnalysisError(TranslationError):
    """The static plan verifier found error-level diagnostics.

    Subclasses :class:`TranslationError` so callers that already guard
    ``translate()`` keep working; the individual findings are available on
    :attr:`diagnostics` (a tuple of ``repro.analysis.Diagnostic``).
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class GraphError(ReproError):
    """The dataflow graph is structurally invalid (cycle, dangling edge...)."""


class ExecutionError(ReproError):
    """A streaming job failed during execution."""


class ShardabilityError(ExecutionError):
    """A dataflow cannot be key-partitioned (O3, sharded backend).

    Carries the structured diagnostics explaining *which* operators hold
    cross-key state, so tooling can render them instead of parsing the
    message text.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class MemoryExhaustedError(ExecutionError):
    """A job exceeded its configured memory budget.

    Models the FlinkCEP failure mode the paper observes in Section 5.2.3:
    the NFA's partial-match state grows until the worker runs out of memory
    and the execution fails.
    """

    def __init__(self, used_bytes: int, budget_bytes: int, operator: str | None = None):
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes
        self.operator = operator
        where = f" in operator '{operator}'" if operator else ""
        super().__init__(
            f"memory budget exhausted{where}: used {used_bytes} of {budget_bytes} bytes"
        )


class BackpressureError(ExecutionError):
    """The requested ingestion rate exceeds the sustainable throughput."""


class InjectedFaultError(ExecutionError):
    """A deterministic fault from a :class:`~repro.asp.runtime.fault
    .injection.FaultPlan` fired — the simulated process crash the
    recovery loop must mask by restarting from the latest checkpoint."""

    def __init__(self, message: str, at_event: int | None = None):
        super().__init__(message)
        self.at_event = at_event


class ServiceError(ReproError):
    """A `repro serve` control-plane request failed.

    Carries a machine-readable ``code`` (stable, kebab-case), an HTTP
    ``status`` for the control API, and optional structured ``details``
    (e.g. the static-analysis diagnostics of a rejected submit) so
    clients get a typed error document instead of a stack trace.
    """

    def __init__(
        self,
        code: str,
        message: str,
        status: int = 400,
        details: list | tuple | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.status = status
        self.details = list(details) if details else []

    def as_dict(self) -> dict:
        out: dict = {"code": self.code, "message": str(self)}
        if self.details:
            out["details"] = self.details
        return out


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""

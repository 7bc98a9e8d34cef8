"""Tests for the exception hierarchy and the public package surface."""

import pytest

import repro
from repro.errors import (
    BackpressureError,
    ExecutionError,
    GraphError,
    MemoryExhaustedError,
    OptimizationError,
    PatternSyntaxError,
    PatternValidationError,
    ReproError,
    SchemaError,
    TranslationError,
    WorkloadError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc_type", [
        SchemaError, PatternSyntaxError, PatternValidationError,
        TranslationError, OptimizationError, GraphError, ExecutionError,
        MemoryExhaustedError, BackpressureError, WorkloadError,
    ])
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_memory_exhausted_is_execution_error(self):
        assert issubclass(MemoryExhaustedError, ExecutionError)
        assert issubclass(BackpressureError, ExecutionError)

    def test_memory_exhausted_carries_details(self):
        exc = MemoryExhaustedError(2048, 1024, operator="join")
        assert exc.used_bytes == 2048
        assert exc.budget_bytes == 1024
        assert exc.operator == "join"
        assert "join" in str(exc)
        assert "2048" in str(exc)

    def test_memory_exhausted_without_operator(self):
        exc = MemoryExhaustedError(10, 5)
        assert "in operator" not in str(exc)

    def test_pattern_syntax_error_position(self):
        exc = PatternSyntaxError("bad token", line=3, column=7)
        assert exc.line == 3 and exc.column == 7
        assert "line 3" in str(exc)
        assert "column 7" in str(exc)

    def test_pattern_syntax_error_without_position(self):
        exc = PatternSyntaxError("bad token")
        assert "line" not in str(exc)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_non_positive_batch_size_is_rejected_before_running(self, batch_size):
        from repro.asp.operators.source import ListSource
        from repro.asp.runtime import ExecutionSettings
        from repro.mapping.translator import translate
        from repro.sea.parser import parse_pattern

        with pytest.raises(ExecutionError, match="batch size must be >= 1"):
            ExecutionSettings(batch_size=batch_size)
        source = ListSource([], event_type="Q")
        query = translate(parse_pattern("PATTERN SEQ(Q a, Q b) WITHIN 5 MINUTES"),
                          {"Q": source})
        with pytest.raises(ExecutionError, match=f"got {batch_size}"):
            query.execute(batch_size=batch_size)
        assert source.emitted == 0

    def test_single_except_catches_everything(self):
        for exc_type in (SchemaError, TranslationError, WorkloadError):
            try:
                raise exc_type("x")
            except ReproError:
                pass


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_minimal_end_to_end_via_public_api_only(self):
        """The README quickstart path, using only `repro` top-level names."""
        from repro.asp.operators.source import ListSource

        pattern = repro.parse_pattern(
            "PATTERN SEQ(Q q1, V v1) WHERE q1.value > 50 "
            "WITHIN 10 MINUTES SLIDE 1 MINUTE"
        )
        events_q = [repro.Event("Q", ts=repro.minutes(i), value=80.0) for i in range(10)]
        events_v = [repro.Event("V", ts=repro.minutes(i) + 1, value=10.0) for i in range(10)]
        query = repro.translate(
            pattern,
            {"Q": ListSource(events_q, event_type="Q"),
             "V": ListSource(events_v, event_type="V")},
            repro.TranslationOptions.o1(),
        )
        result = query.execute()
        assert not result.failed
        assert query.matches()

    def test_subpackages_export_alls(self):
        import repro.asp
        import repro.cep
        import repro.experiments
        import repro.mapping
        import repro.runtime
        import repro.sea
        import repro.workloads

        for module in (repro.asp, repro.cep, repro.experiments, repro.mapping,
                       repro.runtime, repro.sea, repro.workloads):
            assert module.__all__
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_operator_protocol_has_one_data_entry_point(self):
        """An operator takes a list of items (``process_batch``; a batch
        of one is a batch) — nothing else, and the data model has no
        batch container for a second entry point to take."""
        import importlib
        import inspect
        import pkgutil

        import repro.asp.datamodel as datamodel
        import repro.asp.operators
        import repro.cep.operator

        modules = [repro.cep.operator] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(
                repro.asp.operators.__path__, "repro.asp.operators."
            )
        ]
        extra = sorted(
            f"{cls.__module__}.{cls.__name__}.{name}"
            for module in modules
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            for name in vars(cls)
            if name.startswith("process") and name != "process_batch"
        )
        assert extra == []
        classes = {
            name
            for name, cls in vars(datamodel).items()
            if inspect.isclass(cls) and cls.__module__ == datamodel.__name__
        }
        assert classes == {
            "Event", "ComplexEvent", "Attribute", "Schema", "EventTypeInfo", "TypeRegistry",
        }

"""Execution environment (substrate 3): metrics, the rate model, and the
FCEP-vs-FASP measurement harness."""

from repro.runtime.harness import run_fasp, run_fcep
from repro.runtime.ratesim import PipelineModel, Station, compare_under_load
from repro.runtime.metrics import (
    ResourceSample,
    ThroughputMeasurement,
    cpu_proxy_series,
    format_bytes,
    format_tps,
    resource_series,
    speedup,
)

__all__ = [
    "PipelineModel", "ResourceSample", "Station", "ThroughputMeasurement",
    "compare_under_load", "cpu_proxy_series", "format_bytes", "format_tps",
    "resource_series", "run_fasp", "run_fcep", "speedup",
]

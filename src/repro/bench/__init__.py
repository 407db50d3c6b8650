"""Benchmark harness: experiment definitions and reporting.

Every table and figure of the paper's evaluation section has a corresponding
experiment function here and a benchmark in ``benchmarks/``.  The functions
return plain data structures (series and rows); :mod:`repro.bench.reporting`
renders them in the paper's shape.
"""

from repro.bench.harness import (
    EngineRunResult,
    SCHEME_ORDER,
    simulation_grid,
    skyserver_engine_run,
    skyserver_schemes,
)
from repro.bench.reporting import format_series, format_table, downsample

__all__ = [
    "EngineRunResult",
    "SCHEME_ORDER",
    "simulation_grid",
    "skyserver_engine_run",
    "skyserver_schemes",
    "format_series",
    "format_table",
    "downsample",
]

"""The architecture-conscious simulator of the paper's §6.1 evaluation.

It drives the adaptive strategies of :mod:`repro.core` with generated
workloads, collecting the byte counters (memory reads, memory writes due to
segment materialization, replica storage) and derived series that the
paper's Figures 5-9 and Table 1 report.
"""

from repro.simulation.metrics import ExperimentResult, MetricsSummary
from repro.simulation.simulator import SimulationConfig, Simulator
from repro.simulation.runner import STRATEGY_MODEL_GRID, run_grid, run_single

__all__ = [
    "ExperimentResult",
    "MetricsSummary",
    "SimulationConfig",
    "Simulator",
    "STRATEGY_MODEL_GRID",
    "run_grid",
    "run_single",
]

"""Convenience runners for the strategy/model grid of the paper's simulation.

Figures 5-7 and Table 1 compare the four combinations {GD, APM} x
{segmentation, replication} — plus, for some plots, the non-segmented
baseline — on the same column and workload.  ``run_grid`` executes that grid
and returns the results keyed by the paper's labels (``"GD Segm"``,
``"APM Repl"``, ...).
"""

from __future__ import annotations

import numpy as np

from repro.simulation.metrics import ExperimentResult
from repro.simulation.simulator import SimulationConfig, Simulator
from repro.util.units import KB
from repro.workloads.generators import make_column
from repro.workloads.query import Workload

#: The four strategy/model combinations of Figures 5-7 and Table 1.
STRATEGY_MODEL_GRID: tuple[tuple[str, str], ...] = (
    ("gd", "segmentation"),
    ("gd", "replication"),
    ("apm", "segmentation"),
    ("apm", "replication"),
)


def run_single(
    workload: Workload,
    *,
    strategy: str,
    model_name: str,
    values: np.ndarray | None = None,
    column_size: int = 100_000,
    domain_size: int = 1_000_000,
    m_min: float = 3 * KB,
    m_max: float = 12 * KB,
    seed: int | None = None,
    time_phases: bool = False,
) -> ExperimentResult:
    """Run one strategy/model combination against ``workload``."""
    config = SimulationConfig(
        strategy=strategy,
        model_name=model_name,
        m_min=m_min,
        m_max=m_max,
        column_size=column_size,
        domain_size=domain_size,
        seed=seed,
        time_phases=time_phases,
    )
    simulator = Simulator(config, values=values)
    return simulator.run(workload)


def run_grid(
    workload: Workload,
    *,
    values: np.ndarray | None = None,
    column_size: int = 100_000,
    domain_size: int = 1_000_000,
    m_min: float = 3 * KB,
    m_max: float = 12 * KB,
    include_baseline: bool = False,
    seed: int | None = None,
) -> dict[str, ExperimentResult]:
    """Run the paper's strategy/model grid against one workload.

    Every combination runs against its own copy of the same column (the
    adaptive strategies reorganize data in place), so results are directly
    comparable.  Returns a mapping from the paper-style label to the result.
    """
    if values is None:
        values = make_column(column_size, domain_size, seed=seed)
    combos: list[tuple[str, str]] = list(STRATEGY_MODEL_GRID)
    if include_baseline:
        # The baseline needs no model; its registered strategy class also
        # provides the "NoSegm" label, so no special-casing is needed here.
        combos.append(("-", "unsegmented"))
    results: dict[str, ExperimentResult] = {}
    for model_name, strategy in combos:
        result = run_single(
            workload,
            strategy=strategy,
            model_name=model_name,
            values=values.copy(),
            column_size=column_size,
            domain_size=domain_size,
            m_min=m_min,
            m_max=m_max,
            seed=seed,
        )
        results[result.label] = result
    return results

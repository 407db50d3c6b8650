"""The simulator driving adaptive strategies over one column.

This reproduces the evaluation vehicle of §6.1.  The paper's simulator also
modelled a constrained memory buffer, but the figures it reports (memory
reads, memory writes due to segment materialization, replica storage) are
memory-level counters, and those are what this simulator counts.  It takes a
column, a strategy ("segmentation", "replication" or "unsegmented"), a
segmentation model and a workload, executes every query and returns an
:class:`~repro.simulation.metrics.ExperimentResult` with the same counters
the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accounting import IOAccountant
from repro.core.models import SegmentationModel, model_from_name
from repro.core.strategy import create_strategy, strategy_class
from repro.simulation.metrics import ExperimentResult
from repro.util.units import KB
from repro.util.validation import ensure_positive
from repro.workloads.generators import make_column
from repro.workloads.query import Workload


def build_strategy(
    strategy: str,
    values: np.ndarray,
    model: SegmentationModel | None,
    *,
    domain: tuple[float, float] | None = None,
    accountant: IOAccountant | None = None,
    time_phases: bool = True,
    storage_budget: float | None = None,
):
    """Instantiate the adaptive column for ``strategy`` over ``values``.

    A thin wrapper over :func:`repro.core.strategy.create_strategy`, kept for
    backward compatibility with the original simulator API: one option set is
    passed for every strategy, so options a strategy does not take (e.g.
    ``storage_budget`` outside replication) are dropped, not rejected.
    """
    return create_strategy(
        strategy,
        values,
        model=model,
        strict=False,
        domain=domain,
        accountant=accountant,
        time_phases=time_phases,
        storage_budget=storage_budget,
    )


@dataclass
class SimulationConfig:
    """Configuration of one simulated run.

    Defaults match the paper's simulation setup: a 100 K-value column over a
    1 M integer domain (4-byte values) and APM bounds of 3 KB / 12 KB.
    """

    strategy: str = "segmentation"
    model_name: str = "apm"
    m_min: float = 3 * KB
    m_max: float = 12 * KB
    column_size: int = 100_000
    domain_size: int = 1_000_000
    storage_budget: float | None = None
    seed: int | None = None
    label: str | None = None
    time_phases: bool = False
    metadata: dict = field(default_factory=dict)

    def make_model(self) -> SegmentationModel | None:
        """Build the segmentation model (``None`` for model-free strategies)."""
        if not strategy_class(self.strategy).requires_model:
            return None
        return model_from_name(self.model_name, m_min=self.m_min, m_max=self.m_max, seed=self.seed)

    def display_label(self) -> str:
        """A short label in the paper's style, e.g. ``"APM Segm"``."""
        if self.label:
            return self.label
        return strategy_class(self.strategy).paper_label(self.model_name)


class Simulator:
    """Runs one configured strategy against one workload."""

    def __init__(self, config: SimulationConfig, values: np.ndarray | None = None) -> None:
        self.config = config
        if values is None:
            values = make_column(config.column_size, config.domain_size, seed=config.seed)
        self.values = np.asarray(values)
        ensure_positive("column size", self.values.size)
        self.column = build_strategy(
            config.strategy,
            self.values,
            config.make_model(),
            accountant=IOAccountant(),
            time_phases=config.time_phases,
            storage_budget=config.storage_budget,
        )

    def run(self, workload: Workload) -> ExperimentResult:
        """Execute every query of the workload and collect the result."""
        for query in workload:
            self.column.select(query.low, query.high)
        model_name = self.config.model_name if type(self.column).requires_model else "-"
        return ExperimentResult(
            label=self.config.display_label(),
            strategy=self.config.strategy,
            model=model_name,
            workload=workload.name,
            log=self.column.history,
            column_bytes=self.column.total_bytes,
            metadata={
                "column_size": int(self.values.size),
                "value_width": int(self.values.dtype.itemsize),
                **self.config.metadata,
                **workload.metadata,
            },
        )

"""Micro-benchmarks of the core selection path.

These use pytest-benchmark's timing for what it is good at: comparing the
steady-state per-query cost of an adapted (segmented or replicated) column
against the non-segmented full-scan baseline on identical queries, and the
per-query cost of replication pressed against its storage budget.
"""

from itertools import cycle

import numpy as np
import pytest

from repro.core.baseline import UnsegmentedColumn
from repro.core.models import AdaptivePageModel
from repro.core.replication import ReplicatedColumn
from repro.core.segmentation import SegmentedColumn
from repro.util.units import KB
from repro.workloads.generators import make_column, multimodal_workload, uniform_workload

N_VALUES = 400_000
DOMAIN = (0.0, 1_000_000.0)


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return make_column(N_VALUES, 1_000_000, seed=17)


@pytest.fixture(scope="module")
def warm_segmented(values) -> SegmentedColumn:
    """A segmented column already adapted by a 500-query warm-up."""
    column = SegmentedColumn(values, model=AdaptivePageModel(8 * KB, 32 * KB), time_phases=False)
    for query in uniform_workload(500, DOMAIN, 0.01, seed=17):
        column.select(query.low, query.high)
    return column


@pytest.fixture(scope="module")
def warm_replicated(values) -> ReplicatedColumn:
    """A replicated column, no budget, adapted by the same 500-query warm-up."""
    column = ReplicatedColumn(values, model=AdaptivePageModel(8 * KB, 32 * KB), time_phases=False)
    for query in uniform_workload(500, DOMAIN, 0.01, seed=17):
        column.select(query.low, query.high)
    for _ in range(3):  # the measured range itself settles: nothing left to materialize
        column.select(500_000, 510_000)
    return column


def test_micro_fullscan_select(benchmark, values):
    column = UnsegmentedColumn(values, time_phases=False)
    benchmark(column.select, 500_000, 510_000)


def test_micro_segmented_select(benchmark, warm_segmented):
    benchmark(warm_segmented.select, 500_000, 510_000)


def test_micro_replicated_select_converged(benchmark, warm_replicated):
    """The segmented case's query on a converged replica tree: cover + analysis + scan."""
    result = benchmark(warm_replicated.select, 500_000, 510_000)
    assert result.count == warm_replicated.history[-1].result_count > 0
    assert warm_replicated.history[-1].replicas_materialized == 0  # converged


def test_micro_replicated_select_budgeted(benchmark, values):
    """Four modes cycled over a budget that holds less than their replicas.

    Every query materializes and evicts (the e2e ``replica_budget`` shape), so
    this times cover + analysis + materialize + enforcement, not a warm scan.
    """
    column = ReplicatedColumn(
        values,
        model=AdaptivePageModel(1 * KB, 4 * KB),
        time_phases=False,
        storage_budget=values.nbytes + 48 * KB,
    )
    workload = list(multimodal_workload(400, DOMAIN, 0.01, n_modes=4, seed=17))
    for query in workload:
        column.select(query.low, query.high)
    queries = cycle(workload)

    def select_next():
        query = next(queries)
        return column.select(query.low, query.high)

    benchmark(select_next)
    assert column.storage_bytes <= column.storage_budget
    assert sum(stats.segments_dropped for stats in column.history) > 0  # it pressed


def test_micro_segmented_beats_fullscan_on_reads(values, warm_segmented):
    baseline = UnsegmentedColumn(values, time_phases=False)
    baseline.select(500_000, 510_000)
    before = warm_segmented.accountant.total_reads_bytes
    warm_segmented.select(500_000, 510_000)
    segmented_reads = warm_segmented.accountant.total_reads_bytes - before
    assert segmented_reads < 0.25 * baseline.accountant.total_reads_bytes

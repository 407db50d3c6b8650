"""Micro-benchmarks of the core selection path.

These use pytest-benchmark's timing for what it is good at: comparing the
steady-state per-query cost of an adapted (segmented) column against the
non-segmented full-scan baseline on identical queries.
"""

import numpy as np
import pytest

from repro.core.baseline import UnsegmentedColumn
from repro.core.models import AdaptivePageModel
from repro.core.segmentation import SegmentedColumn
from repro.util.units import KB
from repro.workloads.generators import make_column, uniform_workload

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


def test_micro_fullscan_select(benchmark, values):
    column = UnsegmentedColumn(values, time_phases=False)
    benchmark(column.select, 500_000, 510_000)


def test_micro_segmented_select(benchmark, warm_segmented):
    benchmark(warm_segmented.select, 500_000, 510_000)


def test_micro_segmented_beats_fullscan_on_reads(values, warm_segmented):
    baseline = UnsegmentedColumn(values, time_phases=False)
    baseline.select(500_000, 510_000)
    before = warm_segmented.accountant.total_reads_bytes
    warm_segmented.select(500_000, 510_000)
    segmented_reads = warm_segmented.accountant.total_reads_bytes - before
    assert segmented_reads < 0.25 * baseline.accountant.total_reads_bytes

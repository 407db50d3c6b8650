"""Micro-benchmarks of the core selection path.

These use pytest-benchmark's timing for what it is good at: comparing the
steady-state per-query cost of an adapted (segmented or replicated) column
against the non-segmented full-scan baseline on identical queries, the
per-query cost of replication pressed against its storage budget, one
pinned snapshot read per organisation on a converged 100 K-row column (the
reader path both share: index cover, then one probe per piece; checked
against a mask scan), and one 16-member wave through the engine's batch pass
on a plain and on a segmented 100 K-row column (each member checked against
the same query run alone).
"""

from itertools import cycle

import numpy as np
import pytest

from repro.core.baseline import UnsegmentedColumn
from repro.core.models import AdaptivePageModel
from repro.core.replication import ReplicatedColumn
from repro.core.segmentation import SegmentedColumn
from repro.engine import Database
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


SNAPSHOT_ROWS = 100_000


@pytest.mark.parametrize("strategy", [SegmentedColumn, ReplicatedColumn], ids=["segmentation", "replication"])
def test_micro_snapshot_read_converged(benchmark, strategy):
    """A pinned ``select_readonly`` on a converged column: no adaptation, no accounting."""
    ra = np.random.default_rng(29).uniform(0.0, 360.0, SNAPSHOT_ROWS)
    column = strategy(ra, model=AdaptivePageModel(8 * KB, 32 * KB), time_phases=False)
    for query in uniform_workload(500, (0.0, 360.0), 0.01, seed=17):
        column.select(query.low, query.high)
    low, high = 180.0, 183.6
    for _ in range(3):  # the measured range itself settles
        column.select(low, high)
    pinned = column.pin_snapshot()
    result = benchmark(column.select_readonly, low, high, pinned)
    expected = np.sort(ra[(ra >= low) & (ra < high)])
    np.testing.assert_array_equal(np.sort(result.values), expected)
    np.testing.assert_array_equal(ra[result.oids], result.values)


WAVE_ROWS = 100_000
#: 16 disjoint 0.036°-wide ranges, and 16 0.36°-wide ranges forming one overlap cluster.
DISJOINT_WAVE = [(low, low + 0.036) for low in np.linspace(5.0, 355.0, 16).tolist()]
OVERLAPPING_WAVE = [(100.0 + 0.036 * i, 100.36 + 0.036 * i) for i in range(16)]


def _bench_wave(benchmark, ranges, strategy=None):
    """Time one ``execute_wave`` of ``ranges``; each member must answer like a lone run."""
    rng = np.random.default_rng(29)
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load(
        "p",
        {"objid": np.arange(WAVE_ROWS, dtype=np.int64), "ra": rng.uniform(0.0, 360.0, WAVE_ROWS)},
    )
    if strategy is not None:
        database.enable_adaptive(
            "p", "ra", strategy=strategy, model="apm", m_min=8 * KB, m_max=32 * KB
        )
    prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
    wave = [(prepared, prepared.binding.bind(pair)) for pair in ranges]
    results = benchmark(database.execute_wave, wave)
    assert [result.cache_level for result in results] == ["batched"] * len(ranges)
    for result, pair in zip(results, ranges):
        got = result.column("objid")
        alone = database.execute_prepared(prepared, pair).column("objid")
        if strategy is None:  # a plain column answers in oid order on both paths
            np.testing.assert_array_equal(got, alone)
        else:
            np.testing.assert_array_equal(np.sort(got), np.sort(alone))


def test_micro_plain_wave_disjoint(benchmark):
    _bench_wave(benchmark, DISJOINT_WAVE)


def test_micro_plain_wave_overlapping(benchmark):
    _bench_wave(benchmark, OVERLAPPING_WAVE)


def test_micro_managed_wave(benchmark):
    _bench_wave(benchmark, DISJOINT_WAVE, strategy="segmentation")

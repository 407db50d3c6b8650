"""End-to-end integration tests across the whole stack.

These tests drive realistic (but small) versions of the paper's scenarios
through the public API: the §6.1 simulation shapes and the §6.2 engine
behaviour, checking the qualitative claims of the evaluation section rather
than individual modules.
"""

import statistics

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.core.replication import ReplicatedColumn
from repro.core.segmentation import SegmentedColumn
from repro.engine.database import Database
from repro.simulation.runner import run_grid
from repro.util.units import KB
from repro.workloads.generators import make_column, uniform_workload, zipf_workload
from repro.workloads.skyserver import skyserver_dataset, skyserver_workload

DOMAIN = (0.0, 1_000_000.0)


@pytest.fixture(scope="module")
def grid_results():
    """A reduced-scale §6.1 grid shared by the shape tests below."""
    values = make_column(40_000, 1_000_000, seed=42)
    workload = uniform_workload(1_200, DOMAIN, 0.1, seed=42)
    return run_grid(workload, values=values, seed=42)


class TestSimulationShapes:
    def test_replication_writes_less_than_segmentation(self, grid_results):
        """Paper §6.1.1: replication lazily materializes, so it writes less."""
        for model in ("GD", "APM"):
            writes_segmentation = grid_results[f"{model} Segm"].summary().total_writes_bytes
            writes_replication = grid_results[f"{model} Repl"].summary().total_writes_bytes
            assert writes_replication < writes_segmentation

    def test_reads_drop_after_adaptation(self, grid_results):
        """Paper §6.1.2: reads converge towards the selection size."""
        for label, result in grid_results.items():
            reads = result.reads_series()
            early = float(np.mean(reads[:20]))
            late = float(np.mean(reads[-200:]))
            assert late < 0.5 * early, label

    def test_replication_reads_slightly_above_segmentation(self, grid_results):
        """Paper Table 1 (selectivity 0.1): replication reads a bit more."""
        assert (
            grid_results["APM Repl"].average_read_kb()
            >= grid_results["APM Segm"].average_read_kb() * 0.9
        )

    def test_replica_storage_peaks_then_shrinks(self, grid_results):
        """Paper §6.1.3: the replica tree needs extra storage, then collapses."""
        for label in ("GD Repl", "APM Repl"):
            storage = grid_results[label].storage_series()
            column_bytes = grid_results[label].column_bytes
            assert max(storage) > 1.1 * column_bytes
            assert storage[-1] < 1.3 * column_bytes

    def test_zipf_keeps_reorganizing_longer_than_uniform(self):
        """Paper §6.1.1: skew delays saturation of the reorganization."""
        values = make_column(40_000, 1_000_000, seed=7)
        uniform = run_grid(uniform_workload(1_200, DOMAIN, 0.1, seed=7), values=values, seed=7)
        zipf = run_grid(zipf_workload(1_200, DOMAIN, 0.1, seed=7), values=values, seed=7)

        def last_write_query(result) -> int:
            writes = result.log.series("writes_bytes")
            nonzero = [i for i, w in enumerate(writes) if w > 0]
            return nonzero[-1] if nonzero else 0

        assert last_write_query(zipf["APM Segm"]) >= last_write_query(uniform["APM Segm"])


class TestEngineScenario:
    def test_skyserver_style_run_improves_selection_time(self):
        """Paper §6.2: after adaptation, per-query selection beats a full scan."""
        dataset = skyserver_dataset(300_000, seed=11)
        workload = skyserver_workload("random", 60, seed=11)

        def run(adaptive: bool) -> tuple[list, Database]:
            database = Database()
            database.create_table("p", {"objid": "int64", "ra": "float64"})
            database.bulk_load(
                "p",
                {"objid": np.arange(dataset.ra.size, dtype=np.int64), "ra": dataset.ra},
            )
            if adaptive:
                database.enable_adaptive(
                    "p", "ra", strategy="segmentation", model="apm",
                    m_min=dataset.m_min, m_max=dataset.m_max_large,
                )
            times = []
            for query in workload:
                result = database.execute(
                    f"SELECT objid FROM p WHERE ra BETWEEN {float(query.low)!r} "
                    f"AND {float(query.high)!r}"
                )
                times.append(result)
            return times, database

        baseline_results, _ = run(adaptive=False)
        adaptive_results, database = run(adaptive=True)
        # Identical answers on every query.
        for base, adapted in zip(baseline_results, adaptive_results):
            assert sorted(base.column("objid")) == sorted(adapted.column("objid"))
        # The adaptive column actually reorganized.
        handle = database.adaptive_handle("p", "ra")
        assert handle.adaptive.segment_count > 1
        # Steady-state selection work is below the full-scan baseline.  Both
        # sides exclude plan compilation (the paper's Figure 10 splits server
        # execution into selection vs adaptation only; the segment-aware plans
        # are a little costlier to compile, which is noise here).  Medians,
        # not sums: a single GC pause or scheduler blip on a loaded machine
        # must not decide a wall-clock comparison.
        tail = len(baseline_results) // 2
        baseline_tail = statistics.median(
            r.total_seconds - r.profile.plan_seconds for r in baseline_results[tail:]
        )
        adaptive_tail_selection = statistics.median(
            r.total_seconds - r.adaptation_seconds - r.profile.plan_seconds
            for r in adaptive_results[tail:]
        )
        assert adaptive_tail_selection < baseline_tail

    def test_core_strategies_agree_with_each_other(self):
        """Segmentation, replication and the baseline all answer identically."""
        values = make_column(30_000, 1_000_000, seed=13)
        workload = uniform_workload(300, DOMAIN, 0.05, seed=13)
        segmentation = SegmentedColumn(
            values.copy(), model=AdaptivePageModel(2 * KB, 8 * KB), domain=DOMAIN
        )
        replication = ReplicatedColumn(
            values.copy(), model=GaussianDice(seed=13), domain=DOMAIN
        )
        for query in workload:
            counts = {
                "segmentation": segmentation.select(query.low, query.high).count,
                "replication": replication.select(query.low, query.high).count,
                "brute": int(((values >= query.low) & (values < query.high)).sum()),
            }
            assert len(set(counts.values())) == 1, counts
        segmentation.check_invariants()
        replication.check_invariants()

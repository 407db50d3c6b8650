"""Unit tests for adaptive replication (Algorithms 2-5)."""

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.core.ranges import ValueRange
from repro.core.replication import ReplicatedColumn
from repro.util.units import KB
from repro.workloads.generators import multimodal_workload
from tests.conftest import TEST_DOMAIN, brute_force_count


@pytest.fixture
def column(values, apm_model) -> ReplicatedColumn:
    return ReplicatedColumn(values, model=apm_model, domain=TEST_DOMAIN)


class ReferenceBudgetColumn(ReplicatedColumn):
    """The enforcement this repo shipped first, kept as the eviction oracle.

    Re-sums the whole tree before the loop and again per eviction, and walks
    every candidate's ancestor chain — slow, and obviously what the paper's
    budget extension means.
    """

    def _enforce_budget(self, stats):
        def has_materialized_ancestor(node):
            ancestor = node.parent
            while ancestor is not None:
                if ancestor.materialized:
                    return True
                ancestor = ancestor.parent
            return False

        if self.storage_bytes <= self.storage_budget:
            return
        candidates = [
            node
            for node in self.tree.walk()
            if node.materialized and has_materialized_ancestor(node)
        ]
        candidates.sort(key=lambda node: node.last_access)
        for node in candidates:
            if self.storage_bytes <= self.storage_budget:
                break
            node.segment.free()
            stats.segments_dropped += 1
            self._cover_dirty = True


def materialized_ranges(column: ReplicatedColumn) -> list[tuple[float, float]]:
    return [
        (node.vrange.low, node.vrange.high)
        for node in column.tree.walk()
        if node.materialized
    ]


class TestConstruction:
    def test_starts_as_single_materialized_root(self, column):
        assert column.segment_count == 1
        assert column.tree.roots[0].materialized
        assert column.storage_bytes == column.total_bytes

    def test_rejects_empty_input(self, apm_model):
        with pytest.raises(ValueError):
            ReplicatedColumn(np.array([]), model=apm_model)

    def test_budget_below_column_size_rejected(self, values, apm_model):
        with pytest.raises(ValueError):
            ReplicatedColumn(values, model=apm_model, storage_budget=10.0)


class TestSelectionCorrectness:
    def test_single_query_matches_brute_force(self, column, values):
        result = column.select(10_000, 20_000)
        assert result.count == brute_force_count(values, 10_000, 20_000)

    def test_many_queries_remain_correct_while_replicating(self, column, values):
        rng = np.random.default_rng(23)
        for _ in range(150):
            low = float(rng.uniform(0, 90_000))
            high = low + float(rng.uniform(100, 15_000))
            assert column.select(low, high).count == brute_force_count(values, low, high)
        column.check_invariants()

    def test_whole_domain_query_returns_everything(self, column, values):
        for low in range(0, 100_000, 10_000):
            column.select(float(low), float(low + 10_000))
        result = column.select(*TEST_DOMAIN)
        assert result.count == values.size

    def test_query_outside_domain_is_empty(self, column):
        assert column.select(500_000, 600_000).count == 0

    def test_gd_model_replication_correct(self, values):
        column = ReplicatedColumn(values, model=GaussianDice(seed=2), domain=TEST_DOMAIN)
        rng = np.random.default_rng(2)
        for _ in range(100):
            low = float(rng.uniform(0, 60_000))
            high = low + 30_000
            assert column.select(low, high).count == brute_force_count(values, low, high)
        column.check_invariants()


class TestCoveringSet:
    def test_initial_cover_is_the_root(self, column):
        cover = column.get_cover(ValueRange(10_000, 20_000))
        assert cover == [column.tree.roots[0]]

    def test_cover_prefers_materialized_children(self, column):
        column.select(10_000, 20_000)  # creates a materialized replica of the range
        cover = column.get_cover(ValueRange(12_000, 18_000))
        assert len(cover) == 1
        assert cover[0].vrange == ValueRange(10_000, 20_000)

    def test_cover_backtracks_to_ancestor_for_virtual_areas(self, column):
        column.select(10_000, 20_000)
        cover = column.get_cover(ValueRange(50_000, 60_000))  # untouched, still virtual below
        assert cover[0].vrange == ValueRange(*TEST_DOMAIN)

    def test_cover_segments_are_disjoint_and_cover_query(self, column):
        rng = np.random.default_rng(5)
        for _ in range(80):
            low = float(rng.uniform(0, 90_000))
            column.select(low, low + 8_000)
        query = ValueRange(20_000, 70_000)
        cover = column.get_cover(query)
        assert all(node.materialized for node in cover)
        ranges = sorted((node.vrange for node in cover), key=lambda r: r.low)
        for first, second in zip(ranges, ranges[1:]):
            assert first.high <= second.low  # disjoint
        from repro.core.ranges import ranges_cover

        assert ranges_cover(ranges, query)


class TestReplicaTreeEvolution:
    def test_replication_writes_less_than_reads(self, column):
        column.select(10_000, 20_000)
        stats = column.history[-1]
        assert 0 < stats.writes_bytes < stats.reads_bytes

    def test_storage_grows_then_shrinks_as_originals_drop(self, values, apm_model):
        column = ReplicatedColumn(values, model=apm_model, domain=TEST_DOMAIN)
        rng = np.random.default_rng(31)
        storage = []
        for _ in range(400):
            low = float(rng.uniform(0, 90_000))
            column.select(low, low + 10_000)
            storage.append(column.storage_bytes)
        assert max(storage) > column.total_bytes * 1.1  # replicas cost extra storage
        assert storage[-1] < max(storage)  # fully replicated originals were dropped

    def test_dropping_releases_root_when_fully_replicated(self, values):
        column = ReplicatedColumn(
            values, model=AdaptivePageModel(m_min=1 * KB, m_max=4 * KB), domain=TEST_DOMAIN
        )
        for low in range(0, 100_000, 5_000):
            column.select(float(low), float(low + 5_000))
        # The original single-segment root should eventually disappear.
        root_ranges = [root.vrange for root in column.tree.roots]
        assert ValueRange(*TEST_DOMAIN) not in root_ranges
        assert len(column.tree.roots) > 1

    def test_segments_dropped_counter(self, values, apm_model):
        column = ReplicatedColumn(values, model=apm_model, domain=TEST_DOMAIN)
        dropped = 0
        for low in range(0, 100_000, 10_000):
            column.select(float(low), float(low + 10_000))
            dropped += column.history[-1].segments_dropped
        assert dropped >= 1

    def test_tree_depth_reported(self, column):
        assert column.tree_depth == 0
        column.select(10_000, 20_000)
        assert column.tree_depth >= 1


class TestStorageBudget:
    def test_budget_is_enforced(self, values, apm_model):
        budget = values.size * values.dtype.itemsize * 1.2
        column = ReplicatedColumn(
            values, model=apm_model, domain=TEST_DOMAIN, storage_budget=budget
        )
        rng = np.random.default_rng(41)
        for _ in range(200):
            low = float(rng.uniform(0, 90_000))
            column.select(low, low + 10_000)
            assert column.storage_bytes <= budget * 1.001
        column.check_invariants()

    @pytest.mark.parametrize("budget_factor", [1.05, 1.2, 1.6])
    def test_one_walk_enforcement_evicts_what_the_reference_evicts(self, values, budget_factor):
        budget = values.size * values.dtype.itemsize * budget_factor
        columns = [
            cls(
                values.copy(),
                model=AdaptivePageModel(m_min=3 * KB, m_max=12 * KB),
                domain=TEST_DOMAIN,
                storage_budget=budget,
            )
            for cls in (ReplicatedColumn, ReferenceBudgetColumn)
        ]
        workload = multimodal_workload(400, TEST_DOMAIN, 0.02, n_modes=4, seed=29)
        evictions = 0
        for query in workload:
            new, reference = (column.select(query.low, query.high) for column in columns)
            assert new.count == reference.count
            stats = [column.history[-1] for column in columns]
            assert stats[0].segments_dropped == stats[1].segments_dropped
            assert stats[0].storage_bytes == stats[1].storage_bytes <= budget
            assert materialized_ranges(columns[0]) == materialized_ranges(columns[1])
            evictions += stats[0].segments_dropped
        assert evictions > 0  # the budget really pressed

    def test_budgeted_column_still_answers_correctly(self, values, apm_model):
        budget = values.size * values.dtype.itemsize * 1.2
        column = ReplicatedColumn(
            values, model=apm_model, domain=TEST_DOMAIN, storage_budget=budget
        )
        rng = np.random.default_rng(43)
        for _ in range(100):
            low = float(rng.uniform(0, 90_000))
            high = low + 10_000
            assert column.select(low, high).count == brute_force_count(values, low, high)

"""Unit tests for adaptive replication (Algorithms 2-5)."""

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.core.ranges import ValueRange
from repro.core.interval_index import IndexSnapshot
from repro.core.replica_tree import ReplicaNode, ReplicaTree
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
    budget extension means.  It shares no arithmetic with the code under
    test: the bytes held are its own recount, never the tree's counter, and
    only the release goes through the tree's door (swapping a segment in
    behind the tree's back would leave the counters and the index behind).
    """

    def _enforce_budget(self, stats):
        def has_materialized_ancestor(node):
            ancestor = node.parent
            while ancestor is not None:
                if ancestor.materialized:
                    return True
                ancestor = ancestor.parent
            return False

        def held():
            return sum(node.size_bytes for node in self.tree.walk() if node.materialized)

        if held() <= self.storage_budget:
            return
        candidates = [
            node
            for node in self.tree.walk()
            if node.materialized and has_materialized_ancestor(node)
        ]
        candidates.sort(key=lambda node: node.last_access)  # stable, over pre-order
        for node in candidates:
            if held() <= self.storage_budget:
                break
            self.tree.free(node)
            stats.segments_dropped += 1


def materialized_ranges(column: ReplicatedColumn) -> list[tuple[float, float]]:
    return [
        (node.vrange.low, node.vrange.high)
        for node in column.tree.walk()
        if node.materialized
    ]


RA_DOMAIN = (0.0, 360.0)


def small_column_shape(values: np.ndarray, budget_factor: float) -> dict:
    """The 20 K-row test column pressed to ``budget_factor`` × its size."""
    return dict(
        values=values,
        domain=TEST_DOMAIN,
        bounds=(3 * KB, 12 * KB),
        budget=values.size * values.dtype.itemsize * budget_factor,
        workload=multimodal_workload(400, TEST_DOMAIN, 0.02, n_modes=4, seed=29),
    )


def replica_budget_shape() -> dict:
    """The e2e ``replica_budget`` workload: 100 K ``ra`` floats, column + 48 KB.

    Four disjoint modes cycled, 1 % ranges inside 4 % areas, fine APM bounds:
    one query touches several nodes, so ``last_access`` ties are the rule.
    """
    ra = np.random.default_rng(7).uniform(*RA_DOMAIN, size=100_000)
    return dict(
        values=ra,
        domain=RA_DOMAIN,
        bounds=(1 * KB, 4 * KB),
        budget=ra.nbytes + 48 * KB,
        workload=multimodal_workload(
            400, RA_DOMAIN, 0.01, n_modes=4, mode_fraction=0.04, seed=29
        ),
    )


def recount(column: ReplicatedColumn) -> tuple[int, float, set]:
    """Node count, bytes held and the materialized nodes, from a walk."""
    nodes = list(column.tree.walk())
    held = {node for node in nodes if node.materialized}
    return len(nodes), sum(node.size_bytes for node in held), held


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
        cover = column.index.cover(ValueRange(10_000, 20_000))
        assert cover == [column.tree.roots[0]]

    def test_cover_prefers_materialized_children(self, column):
        column.select(10_000, 20_000)  # creates a materialized replica of the range
        cover = column.index.cover(ValueRange(12_000, 18_000))
        assert len(cover) == 1
        assert cover[0].vrange == ValueRange(10_000, 20_000)

    def test_cover_backtracks_to_ancestor_for_virtual_areas(self, column):
        column.select(10_000, 20_000)
        cover = column.index.cover(ValueRange(50_000, 60_000))  # untouched, still virtual below
        assert cover[0].vrange == ValueRange(*TEST_DOMAIN)

    def test_cover_segments_are_disjoint_and_cover_query(self, column):
        rng = np.random.default_rng(5)
        for _ in range(80):
            low = float(rng.uniform(0, 90_000))
            column.select(low, low + 8_000)
        query = ValueRange(20_000, 70_000)
        cover = column.index.cover(query)
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

    @pytest.mark.parametrize("pressure", ["1.05", "1.2", "1.6", "replica_budget"])
    def test_one_walk_enforcement_evicts_what_the_reference_evicts(self, values, pressure):
        benchmark_shape = pressure == "replica_budget"
        shape = (
            replica_budget_shape()
            if benchmark_shape
            else small_column_shape(values, float(pressure))
        )
        budget = shape["budget"]
        m_min, m_max = shape["bounds"]
        columns = [
            cls(
                shape["values"].copy(),
                model=AdaptivePageModel(m_min=m_min, m_max=m_max),
                domain=shape["domain"],
                storage_budget=budget,
            )
            for cls in (ReplicatedColumn, ReferenceBudgetColumn)
        ]
        evictions = ties = 0
        for query in shape["workload"]:
            new, reference = (column.select(query.low, query.high) for column in columns)
            assert new.count == reference.count
            stats = [column.history[-1] for column in columns]
            assert stats[0].segments_dropped == stats[1].segments_dropped
            assert stats[0].storage_bytes == stats[1].storage_bytes <= budget
            assert materialized_ranges(columns[0]) == materialized_ranges(columns[1])
            evictions += stats[0].segments_dropped
            if benchmark_shape:
                columns[0].check_invariants()
                touched = [node.last_access for node in columns[0].tree.materialized]
                ties += len(touched) - len(set(touched))
        assert evictions > 0  # the budget really pressed
        if benchmark_shape:
            assert ties > 0  # nodes one query touched survive together: the order mattered

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


class TestCounters:
    @pytest.mark.parametrize("budget_factor", [None, 1.05, 1.6])
    def test_counters_equal_a_recount_after_every_query(self, values, apm_model, budget_factor):
        budget = None if budget_factor is None else values.nbytes * budget_factor
        column = ReplicatedColumn(
            values, model=apm_model, domain=TEST_DOMAIN, storage_budget=budget
        )
        rng = np.random.default_rng(53)
        for _ in range(250):
            low = float(rng.uniform(0, 95_000))
            column.select(low, low + float(rng.uniform(50, 12_000)))
            nodes, held_bytes, held = recount(column)
            assert column.segment_count == column.tree.node_count == nodes
            assert column.storage_bytes == column.tree.storage_bytes == held_bytes
            assert column.tree.materialized == held
            stats = column.history[-1]
            assert (stats.segment_count, stats.storage_bytes) == (nodes, held_bytes)
        assert nodes > 10  # the tree really grew
        column.check_invariants()


class TestNoTraversalOnTheQueryPath:
    def test_select_walks_nothing_and_the_next_pin_captures_once(self, monkeypatch):
        shape = replica_budget_shape()
        values = shape["values"]
        column = ReplicatedColumn(
            values,
            model=AdaptivePageModel(m_min=1 * KB, m_max=4 * KB),
            domain=RA_DOMAIN,
            storage_budget=shape["budget"],
        )
        queries = list(shape["workload"])
        for query in queries[:80]:  # warm: every mode has its replicas
            column.select(query.low, query.high)
        generation = column.pin_snapshot().generation

        calls = {"tree.walk": 0, "node.walk": 0, "capture": 0}

        def spy(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(ReplicaTree, "walk", spy("tree.walk", ReplicaTree.walk))
        monkeypatch.setattr(ReplicaNode, "walk", spy("node.walk", ReplicaNode.walk))
        monkeypatch.setattr(IndexSnapshot, "__init__", spy("capture", IndexSnapshot.__init__))

        dropped = 0
        for query in queries[80:]:
            column.select(query.low, query.high)
            dropped += column.history[-1].segments_dropped
        assert len(queries) - 80 >= 300 and dropped > 0  # budgeted, and it pressed
        assert calls == {"tree.walk": 0, "node.walk": 0, "capture": 0}

        pinned = column.pin_snapshot()
        assert calls["capture"] == 1
        assert pinned.generation > generation
        assert column.pin_snapshot() is pinned  # nothing changed: nothing captured
        assert calls["capture"] == 1

        low, high = queries[0].low, queries[-1].high
        got = column.select_readonly(low, high, pinned)
        expected = np.sort(values[(values >= low) & (values < high)])
        np.testing.assert_array_equal(np.sort(got.values), expected)
        np.testing.assert_array_equal(np.sort(values[got.oids]), expected)

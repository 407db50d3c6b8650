"""Unit tests for adaptive replication (Algorithms 2-5)."""

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.core.ranges import ValueRange
from repro.core.replica_tree import ReplicaNode, ReplicaTree
from repro.core.replication import ReplicatedColumn
from repro.engine.database import Database
from repro.tuning.knobs import knob_table
from repro.util.units import KB
from repro.workloads.generators import multimodal_workload
from tests.conftest import TEST_DOMAIN, brute_force_count


@pytest.fixture
def column(values, apm_model) -> ReplicatedColumn:
    return ReplicatedColumn(values, model=apm_model, domain=TEST_DOMAIN)


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
    48 KB cannot hold the four modes' replicas, so queries keep partitioning.
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


def budget_shape(values: np.ndarray, pressure: str) -> dict:
    """``small_column_shape`` at ``pressure`` × the column, or ``replica_budget``."""
    if pressure == "replica_budget":
        return replica_budget_shape()
    return small_column_shape(values, float(pressure))


def shaped_column(shape: dict, model: str, budget: float | None, **options) -> ReplicatedColumn:
    m_min, m_max = shape["bounds"]
    return ReplicatedColumn(
        shape["values"].copy(),
        model=AdaptivePageModel(m_min=m_min, m_max=m_max) if model == "apm" else GaussianDice(seed=3),
        domain=shape["domain"],
        storage_budget=budget,
        **options,
    )


def record_partitions(monkeypatch) -> list[list[ReplicaNode]]:
    """The leaves of every partition step from now on, appended as they happen."""
    partitions: list[list[ReplicaNode]] = []
    answered_leaves = ReplicatedColumn._answered_leaves

    def recorded(cover_node):
        partitions.append(answered_leaves(cover_node))
        return partitions[-1]

    monkeypatch.setattr(ReplicatedColumn, "_answered_leaves", staticmethod(recorded))
    return partitions


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
            assert first.high == second.low  # disjoint, and no gap between them
        assert ranges[0].low <= query.low and ranges[-1].high >= query.high


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
            assert column.storage_bytes <= budget
            column.check_invariants()

    @pytest.mark.parametrize("pressure", ["1.05", "1.2", "replica_budget"])
    @pytest.mark.parametrize("model", ["apm", "gd"])
    def test_storage_stays_within_budget_after_every_query(
        self, values, model, pressure, monkeypatch
    ):
        partitions = record_partitions(monkeypatch)
        shape = budget_shape(values, pressure)
        budget, base = shape["budget"], shape["values"]
        column = shaped_column(shape, model, budget)
        for query in shape["workload"]:
            got = column.select(query.low, query.high)
            assert column.storage_bytes <= budget
            assert column.history[-1].storage_bytes <= budget
            expected = np.sort(base[(base >= query.low) & (base < query.high)])
            np.testing.assert_array_equal(np.sort(got.values), expected)
            np.testing.assert_array_equal(np.sort(base[got.oids]), expected)
            column.check_invariants()
        assert partitions  # the budget really pressed

    @pytest.mark.parametrize("pressure", ["1.05", "replica_budget"])
    def test_replicas_that_do_not_fit_never_raise_storage(self, values, pressure, monkeypatch):
        shape = budget_shape(values, pressure)
        column = shaped_column(shape, "apm", shape["budget"])
        partitioned = record_partitions(monkeypatch)
        materialize = column._materialize
        steps = []

        def measured(cover_node, to_materialize, stats):
            before = column.storage_bytes
            materialize(cover_node, to_materialize, stats)
            if partitioned and to_materialize is partitioned[-1]:
                steps.append((before, column.storage_bytes, cover_node))

        column._materialize = measured
        for query in shape["workload"]:
            column.select(query.low, query.high)
        assert steps
        for before, after, cover_node in steps:
            assert after <= before
            assert not cover_node.materialized  # Algorithm 5 dropped the partitioned piece

    @pytest.mark.parametrize("model", ["apm", "gd"])
    def test_a_budget_never_pressed_changes_no_record(self, model, monkeypatch):
        partitions = record_partitions(monkeypatch)
        shape = replica_budget_shape()
        columns = [
            shaped_column(shape, model, budget, time_phases=False)
            for budget in (None, shape["values"].nbytes * 100.0)
        ]
        for query in shape["workload"]:
            for column in columns:
                column.select(query.low, query.high)
        assert not partitions
        assert columns[0].history.records == columns[1].history.records

    @staticmethod
    def _replicated_under_a_roomy_budget():
        """A database whose replication column grew to ~1.9× its bytes under a 4× budget."""
        values = np.random.default_rng(3).uniform(0.0, 1000.0, 20_000)
        database = Database()
        database.create_table("t", {"v": "float64"})
        database.bulk_load("t", {"v": values})
        database.enable_adaptive(
            "t", "v", strategy="replication", model="apm", m_min=1 * KB, m_max=4 * KB,
            storage_budget=4.0 * values.nbytes,
        )
        column = database.adaptive_handle("t", "v").adaptive
        for query in multimodal_workload(200, (0.0, 1000.0), 0.02, n_modes=4, seed=29):
            column.select(query.low, query.high)
        return database, column, values

    @pytest.mark.parametrize("lowered_factor", [1.0, 1.5])
    def test_a_lowered_budget_is_met_by_the_next_query(self, lowered_factor):
        database, column, values = self._replicated_under_a_roomy_budget()
        row = next(row for row in knob_table(database) if row["name"] == "replication_storage_budget")
        lowered = row["low"] * lowered_factor  # the knob's floor is the column bytes
        assert column.storage_bytes > lowered
        database.set_knobs({"replication_storage_budget": lowered})
        assert column.storage_budget == lowered

        got = column.select(100.0, 120.0)
        assert column.storage_bytes <= lowered
        assert column.history[-1].segments_dropped > 0
        expected = np.sort(values[(values >= 100.0) & (values < 120.0)])
        np.testing.assert_array_equal(np.sort(got.values), expected)
        column.check_invariants()

    def test_a_lowered_budget_already_met_releases_nothing(self, monkeypatch):
        database, column, values = self._replicated_under_a_roomy_budget()
        lowered = column.storage_bytes
        database.set_knobs({"replication_storage_budget": lowered})

        def release(*_):
            raise AssertionError("a met budget entered the release pass")

        monkeypatch.setattr(column, "_meet_lowered_budget", release)
        got = column.select(100.0, 120.0)
        assert column.storage_bytes <= lowered
        expected = np.sort(values[(values >= 100.0) & (values < 120.0)])
        np.testing.assert_array_equal(np.sort(got.values), expected)
        column.check_invariants()

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
    def test_select_walks_nothing(self, monkeypatch):
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

        calls = {"tree.walk": 0, "node.walk": 0}

        def spy(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        monkeypatch.setattr(ReplicaTree, "walk", spy("tree.walk", ReplicaTree.walk))
        monkeypatch.setattr(ReplicaNode, "walk", spy("node.walk", ReplicaNode.walk))

        partitions = record_partitions(monkeypatch)
        for query in queries[80:]:
            column.select(query.low, query.high)
        assert len(queries) - 80 >= 300 and partitions  # budgeted, and it partitioned
        assert calls == {"tree.walk": 0, "node.walk": 0}

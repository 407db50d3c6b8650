"""The engine's vectorized batch executor and plan-cache observability."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.executor import overlap_clusters
from repro.util.half_open import half_open_in_domain, half_open_in_domain_many
from repro.util.units import KB


@pytest.fixture
def database() -> Database:
    rng = np.random.default_rng(23)
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64"})
    db.bulk_load(
        "p",
        {
            "objid": np.arange(10_000, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, size=10_000),
        },
    )
    return db


def _rows(result):
    return sorted(map(tuple, zip(*(result.columns[name] for name in result.column_names))))


def _reference(statements):
    rng = np.random.default_rng(23)
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64"})
    db.bulk_load(
        "p",
        {
            "objid": np.arange(10_000, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, size=10_000),
        },
    )
    return [db.execute(sql) for sql in statements]


DISJOINT = [
    "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 12.0",
    "SELECT objid FROM p WHERE ra BETWEEN 100.0 AND 103.0",
    "SELECT objid FROM p WHERE ra BETWEEN 350.0 AND 351.0",
]
MIXED = [
    "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 40.0",
    "SELECT objid, ra FROM p WHERE ra BETWEEN 30.0 AND 60.0",
    "SELECT objid FROM p WHERE ra BETWEEN 200.0 AND 201.0",
    "SELECT objid FROM p WHERE ra > 355.0",
    "SELECT objid FROM p WHERE ra = 42.0",
]


class TestBatchExecutor:
    def test_disjoint_ranges_batch_on_plain_column(self, database):
        results = database.execute_many(DISJOINT)
        assert all(result.batched for result in results)
        assert all(result.cache_level == "batched" for result in results)
        for got, expected in zip(results, _reference(DISJOINT)):
            assert _rows(got) == _rows(expected)
        assert results[0].plan_text == (
            "# batched shared scan of p.ra (3 queries, one scan per overlap cluster: 3)"
        )

    def test_overlapping_ranges_share_one_envelope_scan(self, database):
        statements = MIXED[:2]
        results = database.execute_many(statements)
        assert all(result.batched for result in results)
        assert "shared scan" in results[0].plan_text
        for got, expected in zip(results, _reference(statements)):
            assert _rows(got) == _rows(expected)

    @pytest.mark.parametrize(
        "bindings",
        [
            [(10.0, 12.0), (100.0, 103.0), (350.0, 351.0)],  # disjoint
            [(10.0, 40.0), (30.0, 60.0), (35.0, 36.0), (55.0, 90.0)],  # one overlap cluster
        ],
        ids=["disjoint", "overlapping"],
    )
    def test_batched_plain_rows_come_in_single_run_order(self, database, bindings):
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        results = database.execute_wave([(prepared, values) for values in bindings])
        assert all(result.batched for result in results)
        for got, values in zip(results, bindings):
            alone = database.execute_prepared(prepared, values)
            assert alone.cache_level == "prepared"
            np.testing.assert_array_equal(got.column("objid"), alone.column("objid"))

    def test_mixed_shapes_batch_on_plain_column(self, database):
        results = database.execute_many(MIXED)
        assert all(result.batched for result in results)
        for got, expected in zip(results, _reference(MIXED)):
            assert _rows(got) == _rows(expected)

    @pytest.mark.parametrize("strategy", ["segmentation", "replication", "unsegmented"])
    def test_batches_match_on_every_registered_strategy(self, database, strategy):
        database.enable_adaptive(
            "p", "ra", strategy=strategy, model="apm", m_min=2 * KB, m_max=8 * KB
        )
        results = database.execute_many(MIXED + DISJOINT)
        assert all(result.batched for result in results)
        for got, expected in zip(results, _reference(MIXED + DISJOINT)):
            assert _rows(got) == _rows(expected)

    def test_managed_batch_adapts_once_per_batch(self, database):
        handle = database.enable_adaptive(
            "p", "ra", strategy="segmentation", model="apm", m_min=2 * KB, m_max=8 * KB
        )
        results = database.execute_many(DISJOINT)
        assert all(result.batched for result in results)
        history = handle.adaptive.history
        assert len(history) == 1
        assert history[-1].batch_size == len(DISJOINT)
        assert handle.adaptive.segment_count > 1  # piggy-backed splits fired

    def test_prepared_many_batches_disjoint_bindings(self, database):
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        bindings = [(10.0, 12.0), (100.0, 103.0), (350.0, 351.0)]
        results = database.execute_prepared_many(prepared, bindings)
        assert all(result.batched for result in results)
        assert [result.parameters for result in results] == bindings
        reference = _reference(
            [f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {high}" for low, high in bindings]
        )
        for got, expected in zip(results, reference):
            assert _rows(got) == _rows(expected)


class TestExecuteWave:
    """The server front-end's engine hook: one wave, many plans, many clients."""

    def test_wave_of_mixed_prepared_statements(self, database):
        select = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        count = database.prepare_statement(
            "SELECT count(*) FROM p WHERE ra BETWEEN ? AND ?"
        )
        wave = [
            (select, (10.0, 12.0)),
            (count, (10.0, 12.0)),
            (select, (100.0, 103.0)),
            (select, (350.0, 351.0)),
        ]
        results = database.execute_wave(wave)
        assert len(results) == 4
        # The range selects batch; the aggregate falls back inside the wave.
        assert [result.batched for result in results] == [True, False, True, True]
        reference = _reference(
            [
                "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 12.0",
                "SELECT objid FROM p WHERE ra BETWEEN 100.0 AND 103.0",
                "SELECT objid FROM p WHERE ra BETWEEN 350.0 AND 351.0",
            ]
        )
        assert _rows(results[0]) == _rows(reference[0])
        assert _rows(results[2]) == _rows(reference[1])
        assert _rows(results[3]) == _rows(reference[2])
        assert results[1].scalars["count(*)"] == len(_rows(reference[0]))

    def test_plan_cache_hit_says_where_the_plan_came_from(self, database):
        """A batched and a snapshot member found their plan; a cold literal did not."""
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        wave = [(prepared, (10.0, 12.0)), (prepared, (100.0, 103.0))]
        batched = database.execute_wave(wave)[0]
        database.enable_adaptive(
            "p", "ra", strategy="segmentation", model="apm", m_min=2 * KB, m_max=8 * KB
        )
        database.read_workers = 2
        snapshot = database.execute_wave(wave)[0]
        cold = database.execute("SELECT ra FROM p WHERE ra BETWEEN 1.0 AND 2.0")
        assert [r.cache_level for r in (batched, snapshot, cold)] == [
            "batched", "snapshot", "cold",
        ]
        assert [r.plan_cache_hit for r in (batched, snapshot, cold)] == [True, True, False]

    def test_batched_members_record_their_bound_parameters(self, database):
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        bindings = [(10.0, 12.0), (100.0, 103.0)]
        results = database.execute_wave(
            [(prepared, values) for values in bindings]
        )
        assert all(result.batched for result in results)
        assert [result.parameters for result in results] == bindings

    def test_stale_plans_are_reprepared_once(self, database):
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        # Invalidate every compiled plan: the wave must re-prepare, not fail.
        database.enable_adaptive(
            "p", "ra", strategy="segmentation", model="apm", m_min=2 * KB, m_max=8 * KB
        )
        assert prepared.generation != database.plan_cache.generation
        bindings = [(10.0, 12.0), (100.0, 103.0), (350.0, 351.0)]
        results = database.execute_wave([(prepared, values) for values in bindings])
        assert all(result.batched for result in results)
        reference = _reference(
            [
                f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {high}"
                for low, high in bindings
            ]
        )
        for got, expected in zip(results, reference):
            assert _rows(got) == _rows(expected)

    def test_a_write_changes_the_wave_not_the_handle(self, database):
        """Classification is a prepare-time fact; pending deltas are a wave-time fact."""
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        wave = [(prepared, (10.0, 12.0)), (prepared, (11.0, 13.0))]
        template = prepared.template
        assert template is not None and template.column == "ra"
        before = database.execute_wave(wave)
        assert all(result.batched for result in before)

        database.insert("p", {"objid": np.array([77_777]), "ra": np.array([11.5])})
        after = database.execute_wave(wave)
        assert prepared.template is template  # same handle, same classification
        assert [result.cache_level for result in after] == ["prepared", "prepared"]
        for old, new in zip(before, after):
            assert sorted(new.column("objid")) == sorted([*old.column("objid"), 77_777])

    def test_wave_updates_batch_stats(self, database):
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        count = database.prepare_statement(
            "SELECT count(*) FROM p WHERE ra BETWEEN ? AND ?"
        )
        database.execute_wave(
            [
                (prepared, (10.0, 12.0)),
                (prepared, (100.0, 103.0)),
                (prepared, (350.0, 351.0)),
                (count, (10.0, 12.0)),
            ]
        )
        batch = database.cache_stats()["batch"]
        assert batch["waves"] == 1
        assert batch["batched_queries"] == 3
        assert batch["fallback_queries"] == 1
        assert batch["wave_size"] == {"min": 3, "max": 3, "mean": 3.0}
        assert batch["wave_size_histogram"]["2-4"] == 1

    def test_empty_wave_is_a_no_op(self, database):
        assert database.execute_wave([]) == []
        assert database.cache_stats()["batch"]["waves"] == 0


class TestBatchedProfiles:
    def test_batched_results_carry_a_real_profile(self, database):
        results = database.execute_many(DISJOINT)
        for result in results:
            assert result.profile is not None
            assert not result.profile.cold
            assert result.profile.execute_seconds == result.total_seconds
            assert result.profile.execute_seconds > 0.0

    def test_batch_cost_apportioned_across_members(self, database):
        results = database.execute_many(DISJOINT)
        shares = {result.profile.execute_seconds for result in results}
        assert len(shares) == 1  # equal shares of one batch
        total = sum(result.total_seconds for result in results)
        assert total == pytest.approx(results[0].total_seconds * len(results))

    def test_profile_format_on_a_batched_result(self, database):
        result = database.execute_many(DISJOINT)[0]
        rendered = result.profile.format()
        assert "query profile (warm)" in rendered
        assert "execute" in rendered
        assert "total" in rendered


class TestOverlapClusters:
    def test_strictly_overlapping_ranges_merge(self):
        clusters = overlap_clusters([(10.0, 20.0), (19.0, 30.0)])
        assert clusters == [[0, 1]]

    def test_touching_at_nextafter_boundary_stays_separate(self):
        """Half-open ranges meeting at one nextafter boundary share no value."""
        boundary = math.nextafter(20.0, math.inf)
        clusters = overlap_clusters([(10.0, boundary), (boundary, 30.0)])
        assert clusters == [[0], [1]]

    def test_exactly_touching_half_open_ranges_stay_separate(self):
        clusters = overlap_clusters([(10.0, 20.0), (20.0, 30.0)])
        assert clusters == [[0], [1]]

    def test_cluster_positions_index_the_input(self):
        clusters = overlap_clusters([(50.0, 60.0), (0.0, 10.0), (5.0, 7.0)])
        assert clusters == [[1, 2], [0]]


class TestCacheStats:
    def test_one_entry_and_totals(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0")  # cold
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0")  # masked hit
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 3.0 AND 4.0")  # masked hit
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )  # the same text: a hit
        database.execute_prepared(prepared, (5.0, 6.0))
        stats = database.cache_stats()
        assert set(stats) == {"batch", "total"}
        total = stats["total"]
        assert (total["hits"], total["misses"]) == (3, 1)
        assert total["size"] == 1  # one statement, however it arrived
        assert total["hit_ratio"] == 0.75

    def test_evictions_are_counted(self):
        db = Database(plan_cache_size=2)
        db.create_table("t", {"x": "float64"})
        db.bulk_load("t", {"x": np.arange(10, dtype=np.float64)})
        for operator in ("<", "<=", ">", ">=", "="):  # five texts, one entry each
            db.execute(f"SELECT x FROM t WHERE x {operator} 4.5")
        total = db.cache_stats()["total"]
        assert (total["evictions"], total["size"]) == (3, 2)

    def test_generation_advances_on_invalidation(self, database):
        before = database.cache_stats()["total"]["generation"]
        database.enable_adaptive("p", "ra", m_min=4 * KB, m_max=16 * KB)
        assert database.cache_stats()["total"]["generation"] == before + 1


class TestHalfOpenBoundsMany:
    def test_bit_identical_to_scalar_translation(self, database):
        database.enable_adaptive("p", "ra", m_min=4 * KB, m_max=16 * KB)
        adaptive = database.adaptive_handle("p", "ra").adaptive
        bounds = [
            (10.0, 20.0, True, True),
            (10.0, 20.0, False, False),
            (-np.inf, 20.0, False, True),
            (20.0, np.inf, True, False),
            (42.0, 42.0, True, True),
            (-500.0, 999.0, True, True),  # clamped to the domain
            (-50.0, -10.0, True, True),  # entirely below it: empty, not reversed
            (-50.0, -10.0, False, False),
        ]
        vectorized = half_open_in_domain_many(adaptive.domain, bounds)
        for bound, row in zip(bounds, vectorized):
            assert (float(row[0]), float(row[1])) == half_open_in_domain(
                adaptive.domain, *bound
            )

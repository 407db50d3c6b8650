"""The engine's vectorized batch executor and plan-cache observability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategy import available_strategies
from repro.engine.database import Database
from repro.util.half_open import half_open_in_domain, half_open_in_domain_many
from repro.util.units import KB
from tests.conftest import literal_wave


#: The values the ``database`` fixture loads into ``p.ra`` (``objid`` is the row).
RA = np.random.default_rng(23).uniform(0.0, 360.0, size=10_000)


@pytest.fixture
def database() -> Database:
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64"})
    db.bulk_load("p", {"objid": np.arange(10_000, dtype=np.int64), "ra": RA.copy()})
    return db


@pytest.fixture
def managed(database) -> Database:
    """The same table with ``p.ra`` under adaptive segmentation."""
    database.enable_adaptive(
        "p", "ra", strategy="segmentation", model="apm", m_min=2 * KB, m_max=8 * KB
    )
    return database


def _rows(result):
    return sorted(map(tuple, zip(*(result.columns[name] for name in result.column_names))))


def _reference(statements):
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64"})
    db.bulk_load("p", {"objid": np.arange(10_000, dtype=np.int64), "ra": RA.copy()})
    return [db.execute(sql) for sql in statements]


DISJOINT = [
    "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 12.0",
    "SELECT objid FROM p WHERE ra BETWEEN 100.0 AND 103.0",
    "SELECT objid FROM p WHERE ra BETWEEN 350.0 AND 351.0",
]
#: What one range select on a plain column runs: its 8-opcode lowering.
PLAIN_LOWERING = {
    "sql.bind": 2, "algebra.uselect": 1, "sql.live": 1, "algebra.projection": 1,
    "sql.resultSet": 1, "sql.rsColumn": 1, "sql.exportResult": 1,
}
MIXED = [
    "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 40.0",
    "SELECT objid, ra FROM p WHERE ra BETWEEN 30.0 AND 60.0",
    "SELECT objid FROM p WHERE ra BETWEEN 200.0 AND 201.0",
    "SELECT objid FROM p WHERE ra > 355.0",
    "SELECT objid FROM p WHERE ra = 42.0",
]
#: Four stored ``ra`` values in ascending order.
EDGES = np.sort(RA)[[2_000, 4_000, 6_000, 8_000]].tolist()
#: Bindings of one prepared ``ra BETWEEN ? AND ?`` wave, by how the ranges
#: relate; ``touching`` and ``point`` bounds are stored values, so a member
#: that drops its edge row shows.
BINDINGS = {
    "disjoint": [(10.0, 12.0), (100.0, 103.0), (350.0, 351.0)],
    "overlapping": [(10.0, 40.0), (30.0, 60.0), (35.0, 36.0), (55.0, 90.0)],
    "touching": [(EDGES[0] - 5.0, EDGES[0]), (EDGES[0], EDGES[1]), (EDGES[1], EDGES[1] + 5.0)],
    "nested": [(0.0, 360.0), (90.0, 270.0), (180.0, 181.0)],
    "point": [(EDGES[2], EDGES[2]), (EDGES[2], EDGES[3]), (EDGES[3], EDGES[3])],
}


def _hits(low: float, high: float) -> list[int]:
    """The objids ``ra BETWEEN low AND high`` selects, by brute force."""
    return np.flatnonzero((RA >= low) & (RA <= high)).tolist()


class TestBatchExecutor:
    @pytest.mark.parametrize("shape", sorted(BINDINGS))
    def test_plain_column_members_run_singly(self, database, shape):
        """A plain column has no batch pass: each member runs the plan's lowering."""
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        bindings = BINDINGS[shape]
        before = database.cache_stats()["batch"]
        results = database.execute_wave([(prepared, values) for values in bindings])
        after = database.cache_stats()["batch"]
        assert after["fallback_queries"] == before["fallback_queries"] + len(bindings)
        assert (after["waves"], after["batched_queries"]) == (0, 0)
        for result, values in zip(results, bindings):
            assert not result.batched
            assert result.cache_level == "prepared"
            assert result.profile.opcode_counts == PLAIN_LOWERING
            assert sorted(result.column("objid").tolist()) == _hits(*values)
            alone = database.execute_prepared(prepared, values)
            np.testing.assert_array_equal(result.column("objid"), alone.column("objid"))

    @pytest.mark.parametrize(
        "statements", [DISJOINT, MIXED[:2], MIXED], ids=["disjoint", "overlapping", "mixed"]
    )
    def test_plain_column_literal_waves_answer_like_the_reference(self, database, statements):
        results = literal_wave(database, statements)
        assert not any(result.batched for result in results)
        assert database.cache_stats()["batch"]["fallback_queries"] == len(statements)
        for got, expected in zip(results, _reference(statements)):
            assert got.column_names == expected.column_names
            assert _rows(got) == _rows(expected)

    @pytest.mark.parametrize("shape", sorted(BINDINGS))
    @pytest.mark.parametrize("strategy", ["segmentation", "replication", "unsegmented"])
    def test_batched_bindings_answer_every_shape(self, database, strategy, shape):
        """Each strategy's batch kernel keeps both closed bounds of every member."""
        database.enable_adaptive(
            "p", "ra", strategy=strategy, model="apm", m_min=2 * KB, m_max=8 * KB
        )
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        bindings = BINDINGS[shape]
        results = database.execute_wave([(prepared, values) for values in bindings])
        assert all(result.batched for result in results)
        for result, values in zip(results, bindings):
            assert sorted(result.column("objid").tolist()) == _hits(*values)
        database.adaptive_handle("p", "ra").adaptive.check_invariants()

    @pytest.mark.parametrize("strategy", ["segmentation", "replication", "unsegmented"])
    def test_batches_match_on_every_registered_strategy(self, database, strategy):
        database.enable_adaptive(
            "p", "ra", strategy=strategy, model="apm", m_min=2 * KB, m_max=8 * KB
        )
        results = literal_wave(database, MIXED + DISJOINT)
        assert all(result.batched for result in results)
        for got, expected in zip(results, _reference(MIXED + DISJOINT)):
            assert _rows(got) == _rows(expected)

    def test_managed_batch_adapts_once_per_batch(self, database):
        handle = database.enable_adaptive(
            "p", "ra", strategy="segmentation", model="apm", m_min=2 * KB, m_max=8 * KB
        )
        results = literal_wave(database, DISJOINT)
        assert all(result.batched for result in results)
        history = handle.adaptive.history
        assert len(history) == 1
        assert history[-1].batch_size == len(DISJOINT)
        assert handle.adaptive.segment_count > 1  # piggy-backed splits fired

    def test_prepared_many_batches_disjoint_bindings(self, managed):
        database = managed
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


    @pytest.mark.parametrize("strategy", ["segmentation", "replication", "unsegmented"])
    def test_a_wave_of_256_disjoint_bindings_batches_every_member(self, database, strategy):
        """One range per 1/256 of the domain: a wave wider than the column has pieces."""
        database.enable_adaptive(
            "p", "ra", strategy=strategy, model="apm", m_min=2 * KB, m_max=8 * KB
        )
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        rng = np.random.default_rng(51)
        spacing = 360.0 / 256
        bindings = [
            (start, start + spacing / 2)
            for start in (i * spacing + float(rng.uniform(0.0, spacing / 4)) for i in range(256))
        ]
        for _ in range(2):  # the first wave adapts the column, the second reads the result
            results = database.execute_prepared_many(prepared, bindings)
            assert len(results) == 256 and all(result.batched for result in results)
            for result, values in zip(results, bindings):
                assert sorted(result.column("objid").tolist()) == _hits(*values)
        database.adaptive_handle("p", "ra").adaptive.check_invariants()


class TestExecuteWave:
    """The server front-end's engine hook: one wave, many plans, many clients."""

    def test_wave_of_mixed_prepared_statements(self, managed):
        database = managed
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
        """Wave members found their plan, plain or adaptive column; a cold literal did not."""
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        wave = [(prepared, (10.0, 12.0)), (prepared, (100.0, 103.0))]
        plain = database.execute_wave(wave)[0]
        database.enable_adaptive(
            "p", "ra", strategy="segmentation", model="apm", m_min=2 * KB, m_max=8 * KB
        )
        adaptive = database.execute_wave(wave)[0]
        cold = database.execute("SELECT ra FROM p WHERE ra BETWEEN 1.0 AND 2.0")
        assert [r.cache_level for r in (plain, adaptive, cold)] == ["prepared", "batched", "cold"]
        assert [r.plan_cache_hit for r in (plain, adaptive, cold)] == [True, True, False]

    def test_batched_members_record_their_bound_parameters(self, managed):
        database = managed
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

    def test_a_write_changes_the_wave_not_the_handle(self, managed):
        """Classification is a prepare-time fact; pending deltas are a wave-time fact."""
        database = managed
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

    def test_wave_updates_batch_stats(self, managed):
        database = managed
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


#: One prepared range select per member column, each column adaptive; ``w``
#: lives on a table that holds a pending insert, the others on one delta-free
#: table.
GROUP_SQL = {
    "ra": "SELECT objid FROM p WHERE ra BETWEEN ? AND ?",
    "dec": "SELECT objid FROM p WHERE dec BETWEEN ? AND ?",
    "w": "SELECT objid FROM q WHERE w BETWEEN ? AND ?",
}
#: Member columns in wave order, and which members the wave batches.
SHAPES = {
    "one-group": (["ra", "ra", "ra"], [True, True, True]),
    "two-groups": (["ra", "dec", "ra", "dec", "dec"], [True] * 5),
    "singletons": (["ra", "dec"], [False, False]),
    "group-and-singleton": (["dec", "ra", "ra", "ra"], [False, True, True, True]),
    "beside-pending-deltas": (["w", "ra", "w", "ra"], [False, True, False, True]),
}


class TestWaveGroups:
    """A wave groups its members per adaptive column: two or more batch, the rest run alone."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("organisation", [None, *available_strategies()])
    def test_members_group_per_column(self, organisation, shape):
        rng = np.random.default_rng(29)
        data = {name: rng.uniform(0.0, 360.0, 4_000) for name in ("ra", "dec", "w")}
        database = Database()
        database.create_table("p", {"objid": "int64", "ra": "float64", "dec": "float64"})
        database.bulk_load(
            "p", {"objid": np.arange(4_000, dtype=np.int64), "ra": data["ra"], "dec": data["dec"]}
        )
        database.create_table("q", {"objid": "int64", "w": "float64"})
        database.bulk_load("q", {"objid": np.arange(4_000, dtype=np.int64), "w": data["w"]})
        adaptive = {
            name: database.enable_adaptive(
                table, name, strategy=organisation, model="apm", m_min=2 * KB, m_max=8 * KB
            ).adaptive
            for table, name in (("p", "ra"), ("p", "dec"), ("q", "w"))
            if organisation is not None
        }
        executed = {name: column._queries_executed for name, column in adaptive.items()}
        late = np.array([15.0, 55.0, 95.0])
        database.insert("q", {"objid": np.arange(4_000, 4_003, dtype=np.int64), "w": late})
        data["w"] = np.concatenate((data["w"], late))

        columns, batched = SHAPES[shape]
        if organisation is None:  # plain columns form no group: every member runs alone
            batched = [False] * len(columns)
        prepared = {name: database.prepare_statement(sql) for name, sql in GROUP_SQL.items()}
        bounds = [(10.0 + 41.0 * at, 30.0 + 41.0 * at) for at in range(len(columns))]
        results = database.execute_wave(
            [(prepared[name], pair) for name, pair in zip(columns, bounds)]
        )

        for name, (low, high), result in zip(columns, bounds, results):
            hits = np.flatnonzero((data[name] >= low) & (data[name] <= high))
            assert sorted(result.columns["objid"].tolist()) == hits.tolist()
        assert [result.batched for result in results] == batched
        batch = database.cache_stats()["batch"]
        groups = {name for name, flag in zip(columns, batched) if flag}
        assert (batch["waves"], batch["batched_queries"], batch["fallback_queries"]) == (
            len(groups), sum(batched), len(batched) - sum(batched),
        )
        for name, column in adaptive.items():  # every member adapted its column, batched or not
            assert column._queries_executed - executed[name] == columns.count(name)
            column.check_invariants()


class TestBatchedProfiles:
    def test_batched_results_carry_a_real_profile(self, managed):
        results = literal_wave(managed, DISJOINT)
        for result in results:
            assert result.profile is not None
            assert not result.profile.cold
            assert result.profile.execute_seconds == result.total_seconds
            assert result.profile.execute_seconds > 0.0

    def test_batch_cost_apportioned_across_members(self, managed):
        results = literal_wave(managed, DISJOINT)
        shares = {result.profile.execute_seconds for result in results}
        assert len(shares) == 1  # equal shares of one batch
        total = sum(result.total_seconds for result in results)
        assert total == pytest.approx(results[0].total_seconds * len(results))

    def test_a_batched_member_shows_its_statements_figure1_text(self, managed):
        prepared = managed.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        members = managed.execute_prepared_many(prepared, BINDINGS["disjoint"])
        lone = managed.execute_prepared(prepared, BINDINGS["disjoint"][0])
        assert [member.cache_level for member in members] == ["batched"] * 3
        assert lone.cache_level == "prepared" and "bpm.newIterator" in lone.plan_text
        assert [member.plan_text for member in members] == [lone.plan_text] * 3

    def test_profile_format_on_a_batched_result(self, managed):
        result = literal_wave(managed, DISJOINT)[0]
        rendered = result.profile.format()
        assert "query profile (warm)" in rendered
        assert "execute" in rendered
        assert "total" in rendered


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

"""Tests for the LRU plan cache and the batched ``execute_many`` path."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.plan_cache import PlanCache, normalize_sql
from repro.util.units import KB


@pytest.fixture
def database() -> Database:
    rng = np.random.default_rng(17)
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64"})
    db.bulk_load(
        "p",
        {
            "objid": np.arange(20_000, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, size=20_000),
        },
    )
    return db


def _rows(result):
    return sorted(map(tuple, zip(*(result.columns[name] for name in result.column_names))))


class TestNormalizeSql:
    def test_collapses_whitespace_and_case(self):
        assert normalize_sql("SELECT  x\nFROM   t") == normalize_sql("select x from t")

    def test_distinct_constants_stay_distinct(self):
        assert normalize_sql("select x from t where x < 1") != normalize_sql(
            "select x from t where x < 2"
        )


class TestPlanCacheUnit:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", "plan-a")
        cache.put("b", "plan-b")
        assert cache.get("a") == "plan-a"  # refreshes a
        cache.put("c", "plan-c")  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == "plan-a"
        assert cache.evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_stats_snapshot(self):
        cache = PlanCache(capacity=4)
        cache.put("a", "plan")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1
        assert stats.hit_ratio == 0.5


class TestExecuteWithCache:
    SQL = "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 40.0"

    def test_second_execution_hits_and_answers_identically(self, database):
        first = database.execute(self.SQL)
        second = database.execute(self.SQL)
        assert not first.plan_cache_hit
        assert second.plan_cache_hit
        assert _rows(first) == _rows(second)
        assert database.cache_stats()["total"]["hits"] == 1

    def test_whitespace_and_case_variants_share_a_plan(self, database):
        database.execute(self.SQL)
        variant = database.execute("select objid  from p where ra between 10.0 and 40.0")
        assert variant.plan_cache_hit

    def test_enabling_adaptive_invalidates_cached_plans(self, database):
        plain = database.execute(self.SQL)
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=2 * KB, m_max=8 * KB)
        adapted = database.execute(self.SQL)
        assert not adapted.plan_cache_hit  # the cache was cleared
        assert "bpm." in adapted.plan_text  # and the new plan is segment-aware
        assert _rows(plain) == _rows(adapted)
        again = database.execute(self.SQL)
        assert again.plan_cache_hit
        assert _rows(again) == _rows(plain)

    def test_cached_adaptive_plan_still_adapts(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=1 * KB, m_max=4 * KB)
        for _ in range(3):
            database.execute(self.SQL)
        handle = database.adaptive_handle("p", "ra")
        assert len(handle.adaptive.history) == 3

    def test_aggregates_are_cacheable(self, database):
        first = database.execute("SELECT COUNT(*) FROM p WHERE ra < 100.0")
        second = database.execute("SELECT COUNT(*) FROM p WHERE ra < 100.0")
        assert second.plan_cache_hit
        assert first.scalar("count(*)") == second.scalar("count(*)")


class TestExecuteMany:
    # Overlapping/touching ranges on p.ra: one cluster, one shared scan.
    STATEMENTS = [
        "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 40.0",
        "SELECT objid, ra FROM p WHERE ra BETWEEN 30.0 AND 60.0",
        "SELECT objid FROM p WHERE ra > 55.0",
        "SELECT objid FROM p WHERE ra = 42.0",
    ]

    def _reference(self, statements):
        rng = np.random.default_rng(17)
        db = Database()
        db.create_table("p", {"objid": "int64", "ra": "float64"})
        db.bulk_load(
            "p",
            {
                "objid": np.arange(20_000, dtype=np.int64),
                "ra": rng.uniform(0.0, 360.0, size=20_000),
            },
        )
        return [db.execute(sql) for sql in statements]

    def test_batched_results_match_individual_execution(self, database):
        batched = database.execute_many(self.STATEMENTS)
        reference = self._reference(self.STATEMENTS)
        assert all(result.batched for result in batched)
        for got, expected in zip(batched, reference):
            assert got.column_names == expected.column_names
            assert _rows(got) == _rows(expected)

    def test_batched_results_match_on_an_adaptive_column(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=2 * KB, m_max=8 * KB)
        batched = database.execute_many(self.STATEMENTS)
        reference = self._reference(self.STATEMENTS)
        for got, expected in zip(batched, reference):
            assert _rows(got) == _rows(expected)

    def test_disjoint_ranges_batch_without_over_scan(self, database):
        """Disjoint ranges batch through the vectorized path, answered exactly."""
        statements = [
            "SELECT objid FROM p WHERE ra BETWEEN 0.0 AND 1.0",
            "SELECT objid FROM p WHERE ra BETWEEN 350.0 AND 351.0",
        ]
        results = database.execute_many(statements)
        assert all(result.batched for result in results)
        reference = self._reference(statements)
        for got, expected in zip(results, reference):
            assert _rows(got) == _rows(expected)

    def test_results_come_back_in_input_order(self, database):
        statements = [
            "SELECT COUNT(*) FROM p",  # not batchable (aggregate)
            "SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 40.0",
            "SELECT objid FROM p WHERE ra BETWEEN 30.0 AND 60.0",
        ]
        results = database.execute_many(statements)
        assert [result.sql for result in results] == statements
        assert not results[0].batched
        assert results[1].batched and results[2].batched
        assert [r.sql for r in database.query_history] == statements

    def test_single_member_groups_take_the_conventional_path(self, database):
        results = database.execute_many(["SELECT objid FROM p WHERE ra < 10.0"])
        assert not results[0].batched

    def test_tables_with_deltas_fall_back(self, database):
        database.insert("p", {"objid": np.array([99_999]), "ra": np.array([10.5])})
        results = database.execute_many(self.STATEMENTS[:2])
        assert not any(result.batched for result in results)
        direct = database.execute(self.STATEMENTS[0])
        assert _rows(results[0]) == _rows(direct)

    def test_one_statement_at_a_time_answers_like_the_batch(self, database):
        singly = [database.execute(sql) for sql in self.STATEMENTS[:2]]
        assert not any(result.batched for result in singly)
        for got, expected in zip(database.execute_many(self.STATEMENTS[:2]), singly):
            assert got.batched and _rows(got) == _rows(expected)

    def test_invalid_statement_raises_the_usual_error(self, database):
        with pytest.raises(Exception):
            database.execute_many(["SELECT objid FROM nowhere WHERE x < 1"])


class TestGenerationCounter:
    def test_clear_advances_generation_even_when_empty(self):
        cache = PlanCache(capacity=4)
        assert cache.generation == 0
        cache.clear()  # empty clear still invalidates external handles
        assert cache.generation == 1
        cache.put("a", "plan")
        cache.clear()
        assert cache.generation == 2
        assert cache.invalidations == 1  # only the non-empty clear counts

    def test_schema_and_adaptive_changes_advance_generation(self, database):
        generation = database.plan_cache.generation
        database.enable_adaptive("p", "ra", m_min=4 * KB, m_max=16 * KB)
        assert database.plan_cache.generation == generation + 1
        database.disable_adaptive("p", "ra")
        assert database.plan_cache.generation == generation + 2


class TestOneEntryPerStatement:
    """A statement is one cache entry and one compiled plan, however it arrives."""

    LITERAL = "SELECT objid FROM p WHERE ra BETWEEN 1.5 AND 2.5"
    QMARK = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"

    @pytest.fixture
    def ran(self, monkeypatch):
        """The compiled plans that executed, in order."""
        from repro.mal.compiled import CompiledPlan

        ran = []
        original = CompiledPlan.execute_bound

        def spy(plan, *args):
            ran.append(plan)
            return original(plan, *args)

        monkeypatch.setattr(CompiledPlan, "execute_bound", spy)
        return ran

    def test_literal_text_then_prepare_is_one_entry(self, database, ran):
        first = database.execute(self.LITERAL)
        hits = database.plan_cache.hits
        prepared = database.prepare_statement(self.QMARK)
        assert database.plan_cache.hits == hits + 1  # the prepare found the plan
        second = database.execute_prepared(prepared, (1.5, 2.5))
        assert len(database.plan_cache) == 1
        assert (first.cache_level, second.cache_level) == ("cold", "prepared")
        assert ran[0] is ran[1] is prepared.delta_free  # no write yet: the delta-free variant
        assert _rows(first) == _rows(second)

    def test_prepare_then_literal_text_is_one_entry(self, database, ran):
        prepared = database.prepare_statement(self.QMARK)
        first = database.execute_prepared(prepared, (1.5, 2.5))
        second = database.execute(self.LITERAL)
        assert len(database.plan_cache) == 1
        assert (first.cache_level, second.cache_level) == ("prepared", "masked")
        assert second.profile.compile_seconds == 0.0 and not second.profile.cold
        assert ran[0] is ran[1] is prepared.delta_free
        database.insert("p", {"objid": [-1], "ra": [2.0]})
        third = database.execute_prepared(prepared, (1.5, 2.5))
        fourth = database.execute(self.LITERAL)
        assert ran[2] is ran[3] is prepared.compiled  # pending deltas: the full cascade
        assert _rows(third) == _rows(fourth) == sorted(_rows(first) + [(-1,)])
        assert _rows(first) == _rows(second)

    def test_limit_variants_share_an_entry_per_count(self, database):
        levels = [
            database.execute(
                f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {low + 30.0} LIMIT 5"
            ).cache_level
            for low in (10.0, 50.0, 90.0)
        ]
        assert levels == ["cold", "masked", "masked"]
        assert len(database.plan_cache) == 1
        other = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 40.0 LIMIT 6")
        assert other.cache_level == "cold" and other.row_count == 6
        assert len(database.plan_cache) == 2
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ? LIMIT 5"
        )
        assert len(database.plan_cache) == 2
        assert database.execute_prepared(prepared, (10.0, 40.0)).row_count == 5

    def test_a_named_text_is_its_own_entry(self, database):
        database.execute(self.LITERAL)
        named = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi"
        )
        assert len(database.plan_cache) == 2
        assert named.binding.style == "named"
        result = database.execute_prepared(named, {"lo": 1.5, "hi": 2.5})
        assert _rows(result) == _rows(database.execute(self.LITERAL))

    def test_text_the_masker_cannot_key_is_known_by_its_full_form(self, database):
        # "AND-5" lexes as AND, -5 but is not maskable: the text binds nothing,
        # is one entry under its full form, and keeps answering correctly.
        glued = "SELECT objid FROM p WHERE ra BETWEEN -9 AND-5"
        spaced = database.execute("SELECT objid FROM p WHERE ra BETWEEN -9 AND -5")
        first, second = database.execute(glued), database.execute(glued)
        assert (first.cache_level, second.cache_level) == ("cold", "masked")
        assert first.parameters == second.parameters == ()
        assert _rows(first) == _rows(second) == _rows(spaced)
        assert database.prepare_statement(glued).binding.count == 0
        assert len(database.plan_cache) == 2

    def test_generation_bump_re_prepares_a_stale_handle(self, database):
        prepared = database.prepare_statement(self.QMARK)
        before = database.execute_prepared(prepared, (10.0, 40.0))
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=2 * KB, m_max=8 * KB)
        assert prepared.generation != database.plan_cache.generation
        after = database.execute_prepared(prepared, (10.0, 40.0))
        assert "bpm." in after.plan_text and "bpm." not in before.plan_text
        assert _rows(before) == _rows(after)
        fresh = database.prepare_statement(self.QMARK)
        assert fresh.generation == database.plan_cache.generation
        assert len(database.plan_cache) == 1

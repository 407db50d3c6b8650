"""Tests for the per-stage query profiler and the compiled fast path."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.profile import STAGES, QueryProfile
from repro.util.units import KB


@pytest.fixture
def database() -> Database:
    rng = np.random.default_rng(31)
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64", "dec": "float64"})
    db.bulk_load(
        "p",
        {
            "objid": np.arange(25_000, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, 25_000),
            "dec": rng.uniform(-90.0, 90.0, 25_000),
        },
    )
    return db


def brute(db, low, high):
    ra = db.catalog.column("p", "ra").bind(0).tail
    objid = db.catalog.column("p", "objid").bind(0).tail
    return sorted(objid[(ra >= low) & (ra <= high)])


class TestQueryProfile:
    def test_cold_query_profiles_every_stage(self, database):
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        profile = result.profile
        assert profile is not None and profile.cold
        assert profile.parse_seconds > 0
        assert profile.compile_seconds > 0
        assert profile.execute_seconds > 0
        assert profile.total_seconds >= profile.execute_seconds
        assert profile.plan_seconds == pytest.approx(
            profile.parse_seconds + profile.compile_seconds
        )

    def test_warm_query_skips_compile(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        warm = database.execute("SELECT objid FROM p WHERE ra BETWEEN 200 AND 220")
        profile = warm.profile
        assert not profile.cold
        assert warm.plan_cache_hit
        assert profile.compile_seconds == 0.0
        assert profile.parse_seconds > 0  # the masked-text fast path still scans
        assert profile.execute_seconds > 0

    def test_an_identical_repeat_is_a_masked_hit_like_any_literal_variant(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        repeat = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        assert repeat.plan_cache_hit and repeat.cache_level == "masked"
        assert repeat.profile.plan_seconds == repeat.profile.parse_seconds  # masking only

    def test_stage_seconds_keys_are_the_pipeline_stages(self, database):
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        assert tuple(result.profile.stage_seconds()) == STAGES == ("parse", "compile", "execute")

    def test_opcode_counts_reflect_the_plan(self, database):
        """The counters name what ran: the lowering, with or without pending writes."""
        sql = "SELECT objid FROM p WHERE ra BETWEEN 10 AND 20"
        counts = database.execute(sql).profile.opcode_counts
        assert counts == {
            "sql.bind": 2, "algebra.uselect": 1, "sql.live": 1, "algebra.projection": 1,
            "sql.resultSet": 1, "sql.rsColumn": 1, "sql.exportResult": 1,
        }
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=2 * KB, m_max=8 * KB)
        short = dict.fromkeys(
            ["bpm.take", "bpm.select", "sql.live", "sql.bind", "algebra.projection",
             "sql.resultSet", "sql.rsColumn", "sql.exportResult"], 1,
        )
        assert database.execute(sql).profile.opcode_counts == short
        database.insert("p", {"objid": [25_000], "ra": [15.0], "dec": [0.0]})
        database.delete("p", [0])
        result = database.execute(sql)
        assert result.profile.opcode_counts == short  # inserts and deletes run it too
        assert 25_000 in result.column("objid").tolist()

    def test_format_renders_stages_and_temperature(self, database):
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        text = result.profile.format()
        assert "cold" in text
        for stage in STAGES:
            assert stage in text
        assert "opcodes" in text

    def test_empty_profile_has_empty_opcode_counts(self):
        assert QueryProfile().opcode_counts == {}


class TestShapeWarmPath:
    def test_literal_variants_hit_the_cache_and_answer_correctly(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        for low, high in [(0.5, 3.25), (200, 220), (355.0, 360.0), (42.0, 42.5)]:
            result = database.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {high}")
            assert result.plan_cache_hit, (low, high)
            assert sorted(result.column("objid")) == brute(database, low, high)

    def test_comparison_shapes_are_lifted_too(self, database):
        cold = database.execute("SELECT objid FROM p WHERE ra < 10")
        warm = database.execute("SELECT objid FROM p WHERE ra < 250")
        assert not cold.plan_cache_hit and warm.plan_cache_hit
        ra = database.catalog.column("p", "ra").bind(0).tail
        objid = database.catalog.column("p", "objid").bind(0).tail
        assert sorted(warm.column("objid")) == sorted(objid[ra < 250])

    def test_equality_shape_binds_one_parameter_twice(self, database):
        value = float(database.catalog.column("p", "ra").bind(0).tail[7])
        database.execute("SELECT objid FROM p WHERE ra = 1.5")
        warm = database.execute(f"SELECT objid FROM p WHERE ra = {value!r}")
        assert warm.plan_cache_hit
        assert 7 in warm.column("objid").tolist()

    def test_aggregates_on_the_warm_path(self, database):
        database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 0 AND 100")
        warm = database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 50 AND 200")
        assert warm.plan_cache_hit
        assert warm.scalar("count(*)") == len(brute(database, 50, 200))

    def test_invalid_range_raises_even_when_the_shape_is_warm(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        with pytest.raises(ValueError, match="high < low"):
            database.execute("SELECT objid FROM p WHERE ra BETWEEN 20 AND 10")

    def test_adaptive_rewrite_still_applies_on_warm_shapes(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation",
                                 m_min=2 * KB, m_max=8 * KB)
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        warm = database.execute("SELECT objid FROM p WHERE ra BETWEEN 100 AND 140")
        assert warm.plan_cache_hit
        assert "bpm.newIterator" in warm.plan_text
        assert sorted(warm.column("objid")) == brute(database, 100, 140)
        handle = database.adaptive_handle("p", "ra")
        assert len(handle.adaptive.history) == 2  # the cached plan still adapts

    def test_limit_shapes_never_install_the_masked_fast_path(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20 LIMIT 5")
        # A different limit is a different shape: it must not reuse the
        # masked text of the first statement.
        second = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20 LIMIT 9")
        assert not second.plan_cache_hit


class TestContextPooling:
    def test_results_are_independent_across_pooled_executions(self, database):
        first = database.execute("SELECT objid, ra FROM p WHERE ra BETWEEN 10 AND 20")
        snapshot = {name: column.copy() for name, column in first.columns.items()}
        database.execute("SELECT objid, ra FROM p WHERE ra BETWEEN 300 AND 320")
        for name, column in first.columns.items():
            assert np.array_equal(column, snapshot[name])

    def test_scalars_do_not_leak_between_queries(self, database):
        database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 0 AND 100")
        projection = database.execute("SELECT objid FROM p WHERE ra BETWEEN 0 AND 1")
        assert projection.scalars == {}

    def test_contexts_are_reused(self, database, monkeypatch):
        from repro.engine.execution import ExecutionContext

        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        count = database.prepare_statement("SELECT count(*) FROM p")
        below = database.prepare_statement("SELECT objid FROM p WHERE ra < ?")
        built = []
        init = ExecutionContext.__init__
        monkeypatch.setattr(
            ExecutionContext, "__init__",
            lambda self, *args, **kwargs: (built.append(self), init(self, *args, **kwargs))[1],
        )
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        database.execute_wave([(count, ()), (below, (5.0,))])
        assert built == []  # every run after the first drew from the pool

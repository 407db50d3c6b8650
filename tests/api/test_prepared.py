"""Prepared statements: identical results, zero-parse profiles, safe invalidation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.api as api
from tests.api.conftest import brute_oids


class TestPreparedExecution:
    @settings(max_examples=40, deadline=None)
    @given(
        low=st.floats(min_value=0.0, max_value=350.0, allow_nan=False),
        span=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_property_identical_to_literal_path(self, low, span):
        # Module-scoped handles (hypothesis reuses the function body): one
        # shared engine keeps the test fast and exercises plan reuse.
        connection, ra_values = _shared_connection()
        high = low + span
        prepared = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        bound = prepared.execute((low, high))
        literal = connection.database.execute(
            f"SELECT objid FROM p WHERE ra BETWEEN {low!r} AND {high!r}"
        )
        assert sorted(bound.column("objid")) == sorted(literal.column("objid"))
        assert bound.cache_level == "prepared"

    def test_zero_parse_and_mask_time_on_profile(self, connection):
        prepared = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        result = prepared.execute((10.0, 20.0))
        assert result.cache_level == "prepared"
        assert result.profile is not None
        # Parse covers both parsing and literal masking in the profiler; the
        # prepared path must skip them entirely.
        assert result.profile.parse_seconds == 0.0
        assert result.profile.optimize_seconds == 0.0
        assert result.profile.compile_seconds == 0.0
        assert not result.profile.cold
        assert result.profile.execute_seconds > 0.0

    def test_prepared_shares_plan_with_literal_text(self, connection):
        connection.database.execute("SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0")
        misses_before = connection.database.plan_cache.misses
        lowered_before = connection.database.plan_cache.stats.size
        prepared = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        # The placeholder text is the literal text's masked key: nothing new
        # was compiled and no entry was added.
        assert connection.database.plan_cache.stats.size == lowered_before
        assert prepared.execute((1.0, 2.0)).row_count == connection.database.execute(
            "SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0"
        ).row_count
        assert connection.database.plan_cache.misses == misses_before

    def test_named_and_positional_styles(self, connection, ra_values):
        positional = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        named = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi")
        assert positional.paramstyle == "qmark" and positional.parameter_count == 2
        assert named.paramstyle == "named" and named.parameter_count == 2
        a = positional.execute((50.0, 60.0))
        b = named.execute({"lo": 50.0, "hi": 60.0})
        assert sorted(a.column("objid")) == sorted(b.column("objid"))
        assert sorted(a.column("objid")) == brute_oids(ra_values, 50.0, 60.0)

    def test_repeated_named_placeholder_binds_every_position(self, connection, ra_values):
        prepared = connection.prepare("SELECT objid FROM p WHERE ra >= :x AND ra <= :x")
        assert prepared.parameter_count == 2  # two positions, one name
        result = prepared.execute({"x": float(ra_values[0])})
        assert result.row_count >= 1

    def test_mixed_placeholder_and_literal(self, connection, ra_values):
        prepared = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND 20.0")
        assert prepared.parameter_count == 1
        result = prepared.execute((10.0,))
        assert sorted(result.column("objid")) == brute_oids(ra_values, 10.0, 20.0)
        with pytest.raises(api.ProgrammingError):
            prepared.execute((30.0,))  # bound low above the baked high

    def test_aggregate_prepared(self, connection, ra_values):
        prepared = connection.prepare("SELECT count(*) FROM p WHERE ra BETWEEN ? AND ?")
        result = prepared.execute((0.0, 180.0))
        assert result.scalar("count(*)") == len(brute_oids(ra_values, 0.0, 180.0))


class TestBindingValidation:
    @pytest.fixture
    def prepared(self, connection):
        return connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")

    def test_high_below_low_rejected_at_bind_time(self, prepared):
        with pytest.raises(api.ProgrammingError, match="high >= low"):
            prepared.execute((20.0, 10.0))

    def test_wrong_arity(self, prepared):
        with pytest.raises(api.ProgrammingError, match="takes 2 parameter"):
            prepared.execute((1.0,))
        with pytest.raises(api.ProgrammingError, match="takes 2 parameter"):
            prepared.execute((1.0, 2.0, 3.0))

    def test_positional_statement_rejects_mapping(self, prepared):
        with pytest.raises(api.ProgrammingError, match="positional"):
            prepared.execute({"lo": 1.0, "hi": 2.0})

    def test_named_statement_rejects_sequence_and_strangers(self, connection):
        named = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi")
        with pytest.raises(api.ProgrammingError, match="named"):
            named.execute((1.0, 2.0))
        with pytest.raises(api.ProgrammingError, match="missing"):
            named.execute({"lo": 1.0})
        with pytest.raises(api.ProgrammingError, match="unknown"):
            named.execute({"lo": 1.0, "hi": 2.0, "typo": 3.0})

    def test_mixing_styles_rejected_at_prepare_time(self, connection):
        with pytest.raises(api.ProgrammingError, match="mix"):
            connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND :hi")

    def test_nan_rejected_inf_accepted(self, prepared, connection, ra_values):
        with pytest.raises(api.ProgrammingError, match="NaN"):
            prepared.execute((float("nan"), 1.0))
        with pytest.raises(api.ProgrammingError, match="NaN"):
            prepared.execute((1.0, float("nan")))
        result = prepared.execute((float("-inf"), float("inf")))
        assert result.row_count == ra_values.size

    def test_non_numeric_rejected(self, prepared):
        for bad in ("10", None, [1.0], object(), True):
            with pytest.raises(api.ProgrammingError, match="numeric"):
                prepared.execute((bad, 20.0))

    def test_numpy_scalars_accepted(self, prepared, ra_values):
        result = prepared.execute((np.float64(10.0), np.int32(20)))
        assert sorted(result.column("objid")) == brute_oids(ra_values, 10.0, 20.0)

    def test_placeholders_rejected_on_literal_path(self, connection):
        with pytest.raises(api.ProgrammingError, match="prepared"):
            connection.cursor().execute("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")


class TestInvalidation:
    def test_reused_across_enable_adaptive_re_lowers(self, connection, ra_values):
        prepared = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        before = prepared.execute((100.0, 110.0))
        plan_before = prepared.plan_text
        assert "bpm.newIterator" not in plan_before

        connection.admin.enable_adaptive("p", "ra", strategy="segmentation", model="apm")
        after = prepared.execute((100.0, 110.0))
        # The handle re-lowered against the segment optimizer: same rows, new plan.
        assert sorted(after.column("objid")) == sorted(before.column("objid"))
        assert sorted(after.column("objid")) == brute_oids(ra_values, 100.0, 110.0)
        assert "bpm.newIterator" in prepared.plan_text
        assert after.cache_level == "prepared"

        connection.admin.disable_adaptive("p", "ra")
        reverted = prepared.execute((100.0, 110.0))
        assert sorted(reverted.column("objid")) == sorted(before.column("objid"))
        assert "bpm.newIterator" not in prepared.plan_text

    def test_generation_advances_on_every_clear(self, connection):
        generation = connection.database.plan_cache.generation
        connection.admin.create_table("q", {"x": "int64"})
        assert connection.database.plan_cache.generation == generation + 1

    def test_stale_engine_handle_is_refreshed_internally(self, connection):
        # Engine-level: even without the client-side refresh, execute_prepared
        # must not run a stale CompiledPlan.
        database = connection.database
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        database.enable_adaptive("p", "ra", strategy="segmentation", model="apm")
        result = database.execute_prepared(prepared, (10.0, 20.0))
        assert "bpm.newIterator" in result.plan_text


_SHARED: dict[str, object] = {}


def _shared_connection():
    """One lazily-built connection for the hypothesis property test."""
    if not _SHARED:
        rng = np.random.default_rng(71)
        ra = rng.uniform(0.0, 360.0, size=5_000)
        conn = repro.connect()
        conn.admin.create_table("p", {"objid": "int64", "ra": "float64"})
        conn.admin.bulk_load(
            "p", {"objid": np.arange(ra.size, dtype=np.int64), "ra": ra}
        )
        _SHARED["connection"] = conn
        _SHARED["ra"] = ra
    return _SHARED["connection"], _SHARED["ra"]


class TestResultMetadata:
    def test_numpy_array_accepted_as_positional_parameters(self, connection, ra_values):
        prepared = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        result = prepared.execute(np.array([10.0, 20.0]))
        assert sorted(result.column("objid")) == brute_oids(ra_values, 10.0, 20.0)

    def test_bound_values_recorded_on_result_and_history(self, connection):
        prepared = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        result = prepared.execute((33.0, 34.5))
        assert result.parameters == (33.0, 34.5)
        assert connection.database.query_history[-1].parameters == (33.0, 34.5)

    def test_bound_values_recorded_on_batched_results(self, managed):
        results = managed.prepare(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        ).executemany([(10.0, 20.0), (15.0, 25.0)])
        assert [r.batched for r in results] == [True, True]
        assert [r.parameters for r in results] == [(10.0, 20.0), (15.0, 25.0)]

"""Unit tests for the segment optimizer rewrite and the BPM runtime."""

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel
from repro.engine.database import Database
from repro.optimizer.bpm import BatPartitionManager
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.util.units import KB


@pytest.fixture
def database() -> Database:
    rng = np.random.default_rng(77)
    ra = rng.uniform(0, 360, 50_000)
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load("p", {"objid": np.arange(50_000, dtype=np.int64), "ra": ra})
    return database


class TestBatPartitionManager:
    def test_enable_and_handle_lookup(self, database):
        handle = database.enable_adaptive("p", "ra", strategy="segmentation", m_min=4 * KB, m_max=16 * KB)
        assert database.bpm.is_managed("p", "ra")
        assert handle.qualified_name == "p.ra"
        assert handle.adaptive.segment_count == 1

    def test_enable_twice_rejected(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation")
        with pytest.raises(ValueError):
            database.enable_adaptive("p", "ra", strategy="segmentation")

    def test_unknown_strategy_rejected(self, database):
        bpm = database.bpm
        values = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            bpm.enable("p", "ra", strategy="hashing", model=AdaptivePageModel(1, 2), values=values)

    def test_disable_returns_column_to_plain_path(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation")
        database.disable_adaptive("p", "ra")
        assert not database.bpm.is_managed("p", "ra")
        plan = database.explain("SELECT objid FROM p WHERE ra BETWEEN 1 AND 2")
        assert "bpm." not in plan

    def test_handle_for_unmanaged_column_fails(self, database):
        with pytest.raises(KeyError):
            database.bpm.handle("p", "ra")

    def test_replication_strategy_supported(self, database):
        handle = database.enable_adaptive("p", "ra", strategy="replication", m_min=4 * KB, m_max=16 * KB)
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        assert result.row_count > 0
        assert handle.adaptive.storage_bytes >= handle.adaptive.total_bytes * 0.99

    def test_empty_column_cannot_become_adaptive(self):
        database = Database()
        database.create_table("empty", {"x": "float64"})
        with pytest.raises(ValueError):
            database.enable_adaptive("empty", "x", strategy="segmentation")


class TestSegmentOptimizerRewrite:
    def test_rewrite_injects_bpm_iterator_block(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=4 * KB, m_max=16 * KB)
        plan = database.explain("SELECT objid FROM p WHERE ra BETWEEN 100 AND 120")
        assert "bpm.take" in plan
        assert "barrier" in plan and "redo" in plan and "exit" in plan
        assert "bpm.newIterator" in plan and "bpm.hasMoreElements" in plan
        assert "bpm.result" in plan

    def test_only_level_zero_selection_is_rewritten(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=4 * KB, m_max=16 * KB)
        plan = database.explain("SELECT objid FROM p WHERE ra BETWEEN 100 AND 120")
        # The delta-BAT selections (levels 1 and 2) keep the conventional path.
        assert plan.count("algebra.uselect") == 2

    def test_plain_columns_untouched(self, database):
        plan = database.explain("SELECT objid FROM p WHERE ra BETWEEN 100 AND 120")
        assert "bpm." not in plan

    def test_predicates_on_other_columns_not_rewritten(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=4 * KB, m_max=16 * KB)
        plan = database.explain("SELECT ra FROM p WHERE objid < 100")
        assert "bpm." not in plan

    def test_rewritten_plan_matches_plain_plan_results(self, database):
        plain = database.execute("SELECT objid FROM p WHERE ra BETWEEN 42 AND 47")
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=4 * KB, m_max=16 * KB)
        for _ in range(5):
            adaptive = database.execute("SELECT objid FROM p WHERE ra BETWEEN 42 AND 47")
            assert sorted(adaptive.column("objid")) == sorted(plain.column("objid"))

    def test_adaptation_happens_through_the_sql_path(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=4 * KB, m_max=16 * KB)
        rng = np.random.default_rng(3)
        for _ in range(30):
            low = float(rng.uniform(0, 350))
            database.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {low + 5}")
        handle = database.adaptive_handle("p", "ra")
        assert handle.adaptive.segment_count > 1
        assert len(handle.adaptive.history) == 30

    def test_comparison_predicate_uses_bpm_with_open_bound(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=4 * KB, m_max=16 * KB)
        result = database.execute("SELECT objid FROM p WHERE ra >= 350")
        handle = database.adaptive_handle("p", "ra")
        expected = int((handle.adaptive.select(350, 361).count))
        assert result.row_count == expected

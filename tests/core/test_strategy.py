"""Tests for the pluggable adaptive-strategy registry."""

import numpy as np
import pytest

from repro.core.baseline import UnsegmentedColumn
from repro.core.replication import ReplicatedColumn
from repro.core.segmentation import SegmentedColumn
from repro.core.strategy import (
    AdaptiveColumnStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
    strategy_class,
    unregister_strategy,
)
from repro.engine.database import Database
from repro.util.units import KB

BUILTINS = {
    "unsegmented": UnsegmentedColumn,
    "segmentation": SegmentedColumn,
    "replication": ReplicatedColumn,
}


class TestRegistryLookup:
    def test_builtins_are_registered(self):
        assert set(BUILTINS) <= set(available_strategies())
        for name, cls in BUILTINS.items():
            assert strategy_class(name) is cls

    def test_lookup_is_case_and_whitespace_insensitive(self):
        assert strategy_class("  Segmentation ") is SegmentedColumn

    def test_unknown_name_error_lists_available_strategies(self):
        with pytest.raises(ValueError) as excinfo:
            strategy_class("btree")
        message = str(excinfo.value)
        assert "btree" in message
        for name in BUILTINS:
            assert name in message

    def test_builtins_satisfy_the_protocol(self, values, apm_model):
        for name in available_strategies():
            column = create_strategy(name, values.copy(), model=apm_model)
            assert isinstance(column, AdaptiveColumnStrategy)


class TestRegistration:
    def test_register_and_create_a_dummy_strategy(self, values):
        class DummyColumn(UnsegmentedColumn):
            strategy_name = "dummy"
            display_short = "Dummy"

        try:
            register_strategy(DummyColumn)
            assert "dummy" in available_strategies()
            column = create_strategy("dummy", values)
            assert isinstance(column, DummyColumn)
            assert column.select(0, 50_000).count > 0
            assert column.describe()["strategy"] == "dummy"
        finally:
            unregister_strategy("dummy")
        assert "dummy" not in available_strategies()

    def test_registration_normalizes_the_name(self, values):
        class MixedCase(UnsegmentedColumn):
            strategy_name = " Hybrid "

        try:
            register_strategy(MixedCase)
            assert "hybrid" in available_strategies()
            assert strategy_class("HYBRID") is MixedCase
            assert isinstance(create_strategy("Hybrid", values), MixedCase)
        finally:
            unregister_strategy("Hybrid")
        assert "hybrid" not in available_strategies()

    def test_reregistering_the_same_class_is_a_noop(self):
        register_strategy(SegmentedColumn)
        assert strategy_class("segmentation") is SegmentedColumn

    def test_shadowing_a_taken_name_is_rejected(self):
        class Impostor(UnsegmentedColumn):
            strategy_name = "unsegmented"

        with pytest.raises(ValueError, match="already registered"):
            register_strategy(Impostor)

    def test_missing_strategy_name_is_rejected(self):
        class Nameless:
            strategy_name = ""

        with pytest.raises(ValueError, match="strategy_name"):
            register_strategy(Nameless)


class TestCreateStrategy:
    def test_model_is_required_for_model_driven_strategies(self, values):
        for name in ("segmentation", "replication"):
            with pytest.raises(ValueError, match="requires a segmentation model"):
                create_strategy(name, values)

    def test_model_is_ignored_for_the_baseline(self, values, apm_model):
        column = create_strategy("unsegmented", values, model=apm_model)
        assert isinstance(column, UnsegmentedColumn)

    def test_none_valued_unknown_options_are_dropped(self, values, apm_model):
        column = create_strategy("segmentation", values, model=apm_model, storage_budget=None)
        assert isinstance(column, SegmentedColumn)

    def test_unknown_option_with_value_is_rejected(self, values, apm_model):
        with pytest.raises(TypeError, match="storage_budget"):
            create_strategy("segmentation", values, model=apm_model, storage_budget=1e9)

    def test_options_reach_the_constructor(self, values, apm_model):
        budget = 10 * values.nbytes
        column = create_strategy("replication", values, model=apm_model, storage_budget=budget)
        assert column.storage_budget == budget


class TestStrategySurface:
    def test_stats_reflects_the_last_selection(self, values, apm_model):
        column = create_strategy("segmentation", values, model=apm_model)
        assert column.stats() is None
        column.select(0, 10_000)
        stats = column.stats()
        assert stats is not None and stats.low == 0.0 and stats.high == 10_000.0

    def test_adapt_runs_a_selection_for_its_side_effect(self, values, apm_model):
        column = create_strategy("segmentation", values, model=apm_model)
        stats = column.adapt(0, 10_000)
        assert stats is not None
        assert len(column.history) == 1

    def test_describe_reports_the_current_state(self, values, apm_model):
        column = create_strategy("replication", values, model=apm_model)
        column.select(0, 10_000)
        description = column.describe()
        assert description["strategy"] == "replication"
        assert description["queries_executed"] == 1
        assert description["storage_bytes"] >= description["total_bytes"]
        assert description["domain"] == (column.domain.low, column.domain.high)

    def test_paper_labels(self):
        assert SegmentedColumn.paper_label("apm") == "APM Segm"
        assert ReplicatedColumn.paper_label("gd") == "GD Repl"
        assert UnsegmentedColumn.paper_label("apm") == "NoSegm"
        assert UnsegmentedColumn.paper_label() == "NoSegm"


class TestDatabaseEnableAdaptive:
    """``Database.enable_adaptive`` round-trips for every built-in strategy."""

    @staticmethod
    def _database() -> Database:
        rng = np.random.default_rng(5)
        database = Database()
        database.create_table("p", {"objid": "int64", "ra": "float64"})
        database.bulk_load(
            "p",
            {
                "objid": np.arange(5_000, dtype=np.int64),
                "ra": rng.uniform(0.0, 360.0, size=5_000),
            },
        )
        return database

    @pytest.mark.parametrize("strategy", sorted(BUILTINS))
    def test_round_trip(self, strategy):
        database = self._database()
        handle = database.enable_adaptive(
            "p", "ra", strategy=strategy, m_min=2 * KB, m_max=8 * KB
        )
        assert handle.strategy == strategy
        assert database.catalog.adaptive_strategy("p", "ra") == strategy
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 50.0")
        expected = database.adaptive_handle("p", "ra").adaptive.stats().result_count
        assert result.row_count == expected
        database.disable_adaptive("p", "ra")
        assert database.catalog.adaptive_strategy("p", "ra") is None

    def test_unknown_strategy_is_rejected_with_the_available_list(self):
        database = self._database()
        with pytest.raises(ValueError, match="unknown strategy"):
            database.enable_adaptive("p", "ra", strategy="btree")

    def test_replication_options_are_forwarded(self):
        database = self._database()
        budget = 4 * 10 * 5_000 * 8
        handle = database.enable_adaptive(
            "p", "ra", strategy="replication", storage_budget=budget
        )
        assert handle.adaptive.storage_budget == budget

    def test_mixed_case_plugin_round_trips_through_the_engine(self):
        class MixedCasePlugin(UnsegmentedColumn):
            strategy_name = "MixedCase"

        register_strategy(MixedCasePlugin)
        try:
            database = self._database()
            handle = database.enable_adaptive("p", "ra", strategy="mixedcase")
            assert handle.strategy == "mixedcase"
            assert database.catalog.adaptive_strategy("p", "ra") == "mixedcase"
            result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10.0 AND 50.0")
            assert result.row_count > 0
        finally:
            unregister_strategy("mixedcase")

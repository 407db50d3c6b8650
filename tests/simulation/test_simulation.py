"""Unit tests for the simulator, metrics containers and the grid runner."""

import numpy as np
import pytest

from repro.core.strategy import create_strategy
from repro.simulation.metrics import ExperimentResult, MetricsSummary
from repro.simulation.runner import STRATEGY_MODEL_GRID, run_grid, run_single
from repro.simulation.simulator import SimulationConfig, Simulator
from repro.util.units import KB
from repro.workloads.generators import make_column, uniform_workload, zipf_workload

DOMAIN = (0.0, 1_000_000.0)


@pytest.fixture(scope="module")
def workload():
    return uniform_workload(300, DOMAIN, 0.1, seed=21)


class TestSimulatorStrategies:
    """The simulator builds its column through ``create_strategy``."""

    def test_known_strategies(self):
        values = make_column(5_000, 100_000, seed=1)
        for name in ("segmentation", "replication", "unsegmented"):
            config = SimulationConfig(strategy=name, m_min=1 * KB, m_max=4 * KB)
            column = Simulator(config, values).column
            assert column.strategy_name == name
            assert column.select(0, 50_000).count > 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Simulator(SimulationConfig(strategy="btree"), make_column(100))

    def test_adaptive_strategy_requires_model(self):
        with pytest.raises(ValueError):
            create_strategy("segmentation", make_column(100), model=None)

    def test_a_budget_on_a_strategy_without_one_is_rejected(self):
        config = SimulationConfig(strategy="segmentation", storage_budget=1e6)
        with pytest.raises(TypeError, match="storage_budget"):
            Simulator(config, make_column(5_000, 100_000, seed=1))


class TestSimulationConfig:
    def test_display_labels_match_paper(self):
        assert SimulationConfig(strategy="segmentation", model_name="apm").display_label() == "APM Segm"
        assert SimulationConfig(strategy="replication", model_name="gd").display_label() == "GD Repl"
        assert SimulationConfig(strategy="unsegmented").display_label() == "NoSegm"
        assert SimulationConfig(label="Custom").display_label() == "Custom"

    def test_make_model(self):
        assert SimulationConfig(strategy="unsegmented").make_model() is None
        assert SimulationConfig(strategy="segmentation", model_name="gd").make_model() is not None


class TestSimulator:
    def test_run_produces_per_query_log(self, workload):
        config = SimulationConfig(strategy="segmentation", model_name="apm", column_size=20_000)
        result = Simulator(config).run(workload)
        assert isinstance(result, ExperimentResult)
        assert len(result.log) == len(workload)
        assert result.label == "APM Segm"
        assert result.metadata["column_size"] == 20_000


class TestRunners:
    def test_run_single_respects_strategy(self):
        workload = uniform_workload(100, DOMAIN, 0.1, seed=21)
        result = run_single(workload, strategy="replication", model_name="apm",
                            column_size=20_000, seed=3)
        assert result.strategy == "replication"
        assert result.summary().queries == 100

    def test_run_grid_produces_paper_labels(self):
        workload = uniform_workload(150, DOMAIN, 0.1, seed=2)
        results = run_grid(workload, column_size=20_000, seed=2)
        assert set(results) == {"GD Segm", "GD Repl", "APM Segm", "APM Repl"}
        assert len(STRATEGY_MODEL_GRID) == 4

    def test_run_grid_with_baseline(self):
        workload = uniform_workload(50, DOMAIN, 0.1, seed=2)
        results = run_grid(workload, column_size=10_000, include_baseline=True, seed=2)
        assert "NoSegm" in results
        summary = results["NoSegm"].summary()
        assert summary.total_writes_bytes == 0

    def test_grid_runs_share_the_same_column(self):
        """All strategies must see identical data so results are comparable."""
        workload = uniform_workload(50, DOMAIN, 0.1, seed=4)
        results = run_grid(workload, column_size=10_000, seed=4)
        counts = {label: result.log[0].result_count for label, result in results.items()}
        assert len(set(counts.values())) == 1


class TestMetrics:
    def test_series_and_summary(self):
        workload = zipf_workload(120, DOMAIN, 0.1, seed=6)
        result = run_single(workload, strategy="replication", model_name="apm",
                            column_size=20_000, seed=6)
        assert len(result.cumulative_writes()) == 120
        assert len(result.reads_series()) == 120
        assert len(result.storage_series()) == 120
        summary = result.summary()
        assert isinstance(summary, MetricsSummary)
        assert summary.average_read_kb == pytest.approx(summary.average_read_bytes / 1024)
        assert summary.peak_storage_bytes >= summary.final_storage_bytes

    def test_cumulative_writes_are_monotone(self):
        workload = uniform_workload(80, DOMAIN, 0.1, seed=8)
        result = run_single(workload, strategy="segmentation", model_name="gd",
                            column_size=10_000, seed=8)
        writes = result.cumulative_writes()
        assert all(b >= a for a, b in zip(writes, writes[1:]))

"""Unit tests for the benchmark harness, reporting and experiment functions.

The experiment functions are exercised at a drastically reduced scale through
the environment knobs so the test suite stays fast; the full-scale runs live
in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.bench import harness
from repro.bench.reporting import downsample, format_series, format_table


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_QUERIES", "200")
    monkeypatch.setenv("REPRO_ENGINE_ROWS", "120000")
    monkeypatch.setenv("REPRO_ENGINE_QUERIES", "24")
    # The harness memoises per-process; clear so the small scale takes effect.
    harness._SIM_CACHE.clear()
    harness._ENGINE_CACHE.clear()
    harness._DATASET_CACHE.clear()
    yield
    harness._SIM_CACHE.clear()
    harness._ENGINE_CACHE.clear()
    harness._DATASET_CACHE.clear()


class TestReporting:
    def test_downsample_short_series(self):
        assert downsample([1.0, 2.0], 10) == [(1, 1.0), (2, 2.0)]

    def test_downsample_long_series_keeps_endpoints(self):
        series = list(range(1000))
        sampled = downsample(series, 10)
        assert sampled[0][0] == 1
        assert sampled[-1][0] == 1000
        assert len(sampled) <= 11

    def test_downsample_empty(self):
        assert downsample([], 5) == []

    def test_format_series(self):
        text = format_series("demo", {"A": [1, 2, 3], "B": [10, 20, 30]}, unit="bytes")
        assert "demo" in text and "A" in text and "B" in text and "bytes" in text

    def test_format_series_no_data(self):
        assert "(no data)" in format_series("empty", {})

    def test_format_table(self):
        text = format_table("t", [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "t" in text and "a" in text
        assert "2.5" in text

    def test_format_table_no_rows(self):
        assert "(no rows)" in format_table("t", [])


class TestHarness:
    def test_env_scaling(self):
        assert harness.sim_query_count() == 200
        assert harness.engine_query_count() == 24

    def test_simulation_grid_is_memoised(self):
        first = harness.simulation_grid("uniform", 0.1)
        second = harness.simulation_grid("uniform", 0.1)
        assert first is second
        assert set(first) == {"GD Segm", "GD Repl", "APM Segm", "APM Repl"}

    def test_skyserver_schemes_scale_bounds(self):
        schemes = harness.skyserver_schemes(1024**3)
        assert schemes["APM 1-25"]["m_max"] == pytest.approx(25 * 1024**2)
        assert schemes["NoSegm"]["strategy"] is None
        assert tuple(harness.SCHEME_ORDER) == ("NoSegm", "GD", "APM 1-25", "APM 1-5")

    def test_engine_run_produces_timings_and_stats(self):
        run = harness.skyserver_engine_run("random", "APM 1-25")
        assert len(run.selection_seconds) == 24
        assert len(run.cumulative_ms()) == 24
        averages = run.average_ms()
        assert set(averages) == {"selection_ms", "adaptation_ms", "total_ms"}
        assert run.segment_stats is not None

    def test_engine_baseline_has_no_adaptation(self):
        run = harness.skyserver_engine_run("random", "NoSegm")
        assert sum(run.adaptation_seconds) == 0.0
        assert run.segment_stats is None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            harness.skyserver_engine_run("random", "BTree")


class TestExperimentFunctions:
    def test_figure_2_table(self):
        from repro.bench.experiments import figure_2

        text = figure_2()
        assert "sigma=0.05" in text and "Figure 2" in text

    def test_simulation_figures_render(self):
        from repro.bench.experiments import figure_5, figure_7, table_1

        assert "selectivity 0.1" in figure_5()
        assert "first 1000 queries" in figure_7()
        table = table_1()
        assert "GD Segm" in table and "APM Repl" in table

    def test_engine_figures_render(self):
        from repro.bench.experiments import figure_10, table_2

        text = figure_10()
        assert "random workload" in text and "NoSegm" in text
        assert "Scheme" in table_2()

"""Unit tests for adaptive segmentation (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.models import GaussianDice
from repro.core.segmentation import SegmentedColumn
from tests.conftest import TEST_DOMAIN, brute_force_count


@pytest.fixture
def column(values, apm_model) -> SegmentedColumn:
    return SegmentedColumn(values, model=apm_model, domain=TEST_DOMAIN)


class TestConstruction:
    def test_starts_as_single_segment(self, column):
        assert column.segment_count == 1
        assert column.segments[0].vrange.low == TEST_DOMAIN[0]
        assert column.segments[0].vrange.high == TEST_DOMAIN[1]

    def test_rejects_empty_and_multidimensional_input(self, apm_model):
        with pytest.raises(ValueError):
            SegmentedColumn(np.array([]), model=apm_model)
        with pytest.raises(ValueError):
            SegmentedColumn(np.zeros((2, 2)), model=apm_model)

    def test_value_width_follows_dtype(self, values, apm_model):
        column = SegmentedColumn(values.astype(np.int64), model=apm_model)
        assert column.value_width == 8


class TestSelectionCorrectness:
    def test_single_query_matches_brute_force(self, column, values):
        result = column.select(10_000, 20_000)
        assert result.count == brute_force_count(values, 10_000, 20_000)

    def test_many_queries_remain_correct_while_reorganizing(self, column, values):
        rng = np.random.default_rng(7)
        for _ in range(150):
            low = float(rng.uniform(0, 90_000))
            high = low + float(rng.uniform(100, 15_000))
            result = column.select(low, high)
            assert result.count == brute_force_count(values, low, high)
        column.check_invariants()
        assert column.segment_count > 1

    def test_oids_point_back_to_original_positions(self, column, values):
        result = column.select(30_000, 40_000)
        assert np.array_equal(np.sort(values[result.oids]), np.sort(result.values))

    def test_empty_range_query(self, column):
        result = column.select(50_000, 50_000)
        assert result.count == 0

    def test_query_outside_domain(self, column):
        result = column.select(200_000, 300_000)
        assert result.count == 0


class TestReorganization:
    def test_splits_occur_and_are_recorded(self, column):
        column.select(25_000, 75_000)
        assert column.segment_count >= 2
        stats = column.history[-1]
        assert stats.splits_performed >= 1
        assert stats.writes_bytes > 0

    def test_storage_is_constant(self, column):
        before = column.storage_bytes
        for low in range(0, 90_000, 9_000):
            column.select(float(low), float(low + 10_000))
        assert column.storage_bytes == before

    def test_segments_partition_domain_after_many_splits(self, column):
        rng = np.random.default_rng(3)
        for _ in range(100):
            low = float(rng.uniform(0, 95_000))
            column.select(low, low + 4_000)
        column.check_invariants()

    def test_untouched_segments_are_not_read(self, column):
        column.select(0, 50_000)  # splits roughly in half
        reads_before = column.accountant.total_reads_bytes
        column.select(1_000, 2_000)
        reads_delta = column.accountant.total_reads_bytes - reads_before
        assert reads_delta < column.total_bytes  # no full scan anymore

    def test_history_tracks_per_query_measurements(self, column):
        column.select(0, 10_000)
        column.select(40_000, 60_000)
        assert len(column.history) == 2
        assert column.history[0].index == 0
        assert column.history[1].index == 1
        assert column.history[1].segment_count == column.segment_count


class TestGaussianDiceIntegration:
    def test_gd_column_reorganizes_and_stays_correct(self, values):
        column = SegmentedColumn(values, model=GaussianDice(seed=5), domain=TEST_DOMAIN)
        rng = np.random.default_rng(11)
        for _ in range(100):
            low = float(rng.uniform(0, 50_000))
            high = low + 30_000
            assert column.select(low, high).count == brute_force_count(values, low, high)
        column.check_invariants()
        assert column.segment_count > 1

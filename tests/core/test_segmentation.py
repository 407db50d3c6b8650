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


def _spy_decisions(column: SegmentedColumn, monkeypatch) -> list[tuple[float, float]]:
    """Record, in order, each query ``column.model.decide`` is asked about."""
    decide, queries = column.model.decide, []

    def spy(query, segment, *, total_bytes):
        queries.append((query.low, query.high))
        return decide(query, segment, total_bytes=total_bytes)

    monkeypatch.setattr(column.model, "decide", spy)
    return queries


class TestWaveAdaptation:
    """``select_many``: each touched segment takes its members' cuts in one split."""

    WAVE = [(1_000.0, 1_500.0), (12_000.0, 30_000.0), (50_000.0, 50_000.0), (61_000.0, 64_000.0),
            (20_000.0, 21_000.0), (81_000.0, 99_000.0), (12_000.0, 30_000.0), (4_000.0, 70_000.0)]

    def test_a_permuted_wave_leaves_the_same_column(self, values):
        columns = [
            SegmentedColumn(values.copy(), model=GaussianDice(seed=7), domain=TEST_DOMAIN)
            for _ in range(2)
        ]
        order = np.random.default_rng(2).permutation(len(self.WAVE))
        for wave in range(6):
            shift = 1_000.0 * wave
            bounds = [(low + shift, high + shift) for low, high in self.WAVE]
            columns[0].select_many(bounds)
            columns[1].select_many([bounds[i] for i in order])
        one, other = columns
        assert one.segment_count > 4
        assert (one.index.lows, one.index.highs) == (other.index.lows, other.index.highs)
        assert one.accountant.total_reads_bytes == other.accountant.total_reads_bytes
        assert one.accountant.total_writes_bytes == other.accountant.total_writes_bytes

    def test_the_envelope_is_decided_first_then_the_members_in_order(self, column, monkeypatch):
        queries = _spy_decisions(column, monkeypatch)
        column.select_many([(60_000.0, 70_000.0), (10_000.0, 20_000.0), (10_000.0, 15_000.0),
                            (60_000.0, 70_000.0)])
        assert queries == [(10_000.0, 70_000.0), (10_000.0, 15_000.0),
                               (10_000.0, 20_000.0), (60_000.0, 70_000.0)]
        assert column.history[-1].splits_performed == 1  # one partition at the union of cuts
        assert column.segment_count == 6
        column.check_invariants()

    def test_a_segment_read_by_one_member_takes_one_decision(self, column, monkeypatch):
        for low in range(0, 100_000, 20_000):
            column.select(float(low), float(low + 20_000))
        segments = column.segments
        queries = _spy_decisions(column, monkeypatch)
        wave = [(s.vrange.low + s.vrange.width / 4, s.vrange.low + s.vrange.width / 2)
                for s in segments]
        column.select_many(wave)
        assert queries == sorted(wave)

    def test_bounds_on_segment_edges_take_no_decision(self, column, monkeypatch):
        for low in range(0, 100_000, 10_000):
            column.select(float(low), float(low + 10_000))
        lows, highs = list(column.index.lows), list(column.index.highs)
        assert len(lows) > 4
        queries = _spy_decisions(column, monkeypatch)
        wave = [(low, high) for low, high in zip(lows, highs)]
        wave += [(low, high) for low, high in zip(lows, highs[2:])] + [(-5.0, 200_000.0)]
        reads = column.accountant.total_reads_bytes
        column.select_many(wave)
        assert queries == []
        assert column.history[-1].splits_performed == 0
        assert column.accountant.total_reads_bytes - reads == column.total_bytes

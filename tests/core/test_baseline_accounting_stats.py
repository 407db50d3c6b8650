"""Unit tests for the baseline column, accounting and segment statistics."""

import numpy as np
import pytest

from repro.core.accounting import IOAccountant, QueryLog, QueryStats
from repro.core.baseline import UnsegmentedColumn
from repro.core.models import AdaptivePageModel
from repro.core.segmentation import SegmentedColumn
from repro.core.statistics import segment_statistics
from repro.util.units import KB
from tests.conftest import TEST_DOMAIN, brute_force_count


class TestUnsegmentedColumn:
    def test_results_match_brute_force(self, values):
        column = UnsegmentedColumn(values, domain=TEST_DOMAIN)
        assert column.select(10_000, 30_000).count == brute_force_count(values, 10_000, 30_000)

    def test_every_query_scans_the_whole_column(self, values):
        column = UnsegmentedColumn(values, domain=TEST_DOMAIN)
        for _ in range(5):
            column.select(0, 1_000)
        assert column.accountant.total_reads_bytes == 5 * column.total_bytes
        assert column.accountant.total_writes_bytes == 0
        assert column.segment_count == 1

    def test_history_is_recorded(self, values):
        column = UnsegmentedColumn(values, domain=TEST_DOMAIN)
        column.select(0, 1_000)
        assert len(column.history) == 1
        assert column.history[0].reads_bytes == column.total_bytes

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            UnsegmentedColumn(np.array([]))


class TestIOAccountant:
    def test_totals_accumulate(self):
        accountant = IOAccountant()
        accountant.record_read(100)
        accountant.record_write(40)
        accountant.record_read(60)
        assert accountant.total_reads_bytes == 160
        assert accountant.total_writes_bytes == 40

    def test_negative_sizes_rejected(self):
        accountant = IOAccountant()
        with pytest.raises(ValueError):
            accountant.record_read(-1)
        with pytest.raises(ValueError):
            accountant.record_write(-1)

    def test_attached_stats_receive_increments(self):
        accountant = IOAccountant()
        stats = QueryStats(index=0, low=0, high=1)
        accountant.attach(stats)
        accountant.record_read(100)
        accountant.record_write(10)
        accountant.detach()
        accountant.record_read(5)
        assert stats.reads_bytes == 100
        assert stats.writes_bytes == 10
        assert stats.segments_scanned == 1
        assert accountant.total_reads_bytes == 105


class TestQueryLog:
    def _log(self) -> QueryLog:
        log = QueryLog()
        for i, (reads, writes) in enumerate([(10, 1), (20, 2), (30, 3)]):
            log.append(QueryStats(index=i, low=0, high=1, reads_bytes=reads, writes_bytes=writes))
        return log

    def test_series_and_cumulative(self):
        log = self._log()
        assert log.series("reads_bytes") == [10, 20, 30]
        assert log.cumulative("writes_bytes") == [1, 3, 6]

    def test_average(self):
        assert self._log().average("reads_bytes") == pytest.approx(20.0)
        assert QueryLog().average("reads_bytes") == 0.0

    def test_indexing(self):
        log = self._log()
        assert log[0].reads_bytes == 10
        assert len(log) == 3


class TestSegmentStatistics:
    def test_statistics_of_adapted_column(self, values):
        column = SegmentedColumn(
            values, model=AdaptivePageModel(3 * KB, 12 * KB), domain=TEST_DOMAIN
        )
        for low in range(0, 90_000, 10_000):
            column.select(float(low), float(low + 12_000))
        stats = segment_statistics(column)
        assert stats.segment_count == column.segment_count
        assert stats.materialized_count == column.segment_count
        assert stats.total_bytes == pytest.approx(column.storage_bytes)
        assert stats.average_bytes > 0

    def test_statistics_of_baseline(self, values):
        column = UnsegmentedColumn(values, domain=TEST_DOMAIN)
        stats = segment_statistics(column)
        assert stats.segment_count == 1
        assert stats.deviation_bytes == 0.0

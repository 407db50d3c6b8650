"""The vectorized batch kernel layer: probes, routing, strategy select_many."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.baseline import UnsegmentedColumn
from repro.core.interval_index import IntervalIndex
from repro.core.models import AdaptivePageModel
from repro.core.ranges import ValueRange
from repro.core.replication import ReplicatedColumn
from repro.core.segment import Segment
from repro.core.segmentation import SegmentedColumn
from repro.core.strategy import batch_bounds_arrays
from repro.util.sorted_search import sorted_probe, sorted_probe_many
from repro.util.units import KB


def _pairs(result):
    return sorted(zip(result.oids.tolist(), np.asarray(result.values).tolist()))


class TestSortedProbeMany:
    @pytest.mark.parametrize("dtype", ["int32", "int64", "uint16", "float64"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_scalar_probe(self, dtype, side):
        rng = np.random.default_rng(5)
        values = np.sort(rng.integers(0, 1_000, size=500).astype(dtype))
        probes = np.concatenate(
            [
                rng.uniform(-50.0, 1_050.0, size=64),
                values[:8].astype(np.float64),  # exact hits
                [-np.inf, np.inf, 0.0, 999.5],
            ]
        )
        expected = [sorted_probe(values, float(p), side=side) for p in probes]
        got = sorted_probe_many(values, probes, side=side)
        assert got.tolist() == expected

    def test_matches_numpy_on_floats(self):
        values = np.sort(np.random.default_rng(6).uniform(0, 10, size=100))
        probes = np.array([-1.0, 2.5, 9.99, 11.0])
        assert sorted_probe_many(values, probes).tolist() == np.searchsorted(
            values, probes, side="left"
        ).tolist()

    def test_int64_extremes_do_not_overflow(self):
        values = np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max])
        probes = np.array([-np.inf, np.inf, float(np.iinfo(np.int64).max) * 2])
        assert sorted_probe_many(values, probes).tolist() == [0, 3, 3]

    def test_invalid_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            sorted_probe_many(np.array([1, 2, 3]), np.array([1.0]), side="middle")


class TestRouteMany:
    def _index(self):
        segs = [
            Segment(ValueRange(0.0, 10.0), np.arange(10)),
            Segment(ValueRange(10.0, 25.0), np.arange(10, 25)),
            Segment(ValueRange(25.0, 100.0), np.arange(25, 100)),
        ]
        return IntervalIndex(segs, segs)

    def test_spans_match_cover(self):
        index = self._index()
        queries = [
            (0.0, 100.0),
            (5.0, 10.0),
            (10.0, 10.0),  # empty
            (9.0, 26.0),
            (-5.0, 0.0),  # before the domain: empty
            (100.0, 200.0),  # past the domain: empty
        ]
        lows = np.array([q[0] for q in queries])
        highs = np.array([q[1] for q in queries])
        starts, stops = index.route_many(lows, highs)
        for (low, high), start, stop in zip(queries, starts.tolist(), stops.tolist()):
            expected = index.cover(ValueRange(low, high))
            got = [index.answers[i] for i in range(start, stop)]
            assert [id(s) for s in got] == [id(s) for s in expected]

    def test_contained_tags_recoverable(self):
        index = self._index()
        lows = np.array([5.0])
        highs = np.array([30.0])
        starts, stops = index.route_many(lows, highs)
        tags = [
            lows[0] <= seg.vrange.low and seg.vrange.high <= highs[0]
            for seg in (index.answers[i] for i in range(starts[0], stops[0]))
        ]
        assert tags == [False, True, False]

    def test_leaf_bounds_checked_by_invariants(self):
        index = self._index()
        index.check_invariants()
        index.highs[1] = 11.0
        with pytest.raises(AssertionError, match="gap"):
            index.check_invariants()


class TestBatchBoundsValidation:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="high >= low"):
            batch_bounds_arrays([(1.0, 2.0), (5.0, 4.0)])

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            batch_bounds_arrays([(0.0, math.inf)])

    def test_empty_batch_allowed(self):
        lows, highs = batch_bounds_arrays([])
        assert lows.size == 0 and highs.size == 0


def _batch_bounds(rng, n, domain=(0.0, 100_000.0), width=1_500.0):
    lows = rng.uniform(domain[0], domain[1] - width, size=n)
    return [(float(low), float(low + rng.uniform(0.0, width))) for low in lows]


class TestSegmentedSelectMany:
    def _column(self, values):
        return SegmentedColumn(values, model=AdaptivePageModel(m_min=3 * KB, m_max=12 * KB))

    def test_matches_per_query_results(self, values):
        rng = np.random.default_rng(8)
        bounds = _batch_bounds(rng, 24) + [(0.0, 100_000.0), (5.0, 5.0)]
        batch_col = self._column(values.copy())
        serial_col = self._column(values.copy())
        batch = batch_col.select_many(bounds)
        for (low, high), got in zip(bounds, batch):
            expected = serial_col.select(low, high)
            assert _pairs(got) == _pairs(expected)
        batch_col.check_invariants()

    def test_one_history_record_per_batch(self, values):
        column = self._column(values)
        bounds = _batch_bounds(np.random.default_rng(9), 16)
        column.select_many(bounds)
        assert len(column.history) == 1
        record = column.history[-1]
        assert record.batch_size == 16
        assert record.result_count == sum(
            ((values >= low) & (values < high)).sum() for low, high in bounds
        )
        # Reads are amortized: each touched segment is read once per batch,
        # so the batch reads at most the whole column once.
        assert record.reads_bytes <= column.total_bytes

    def test_batch_adaptation_splits_segments(self, values):
        column = self._column(values)
        assert column.segment_count == 1
        column.select_many([(10_000.0, 12_000.0), (60_000.0, 61_000.0)])
        assert column.segment_count > 1
        column.check_invariants()

    def test_empty_batch(self, values):
        column = self._column(values)
        assert column.select_many([]) == []
        assert len(column.history) == 0


class TestUnsegmentedSelectMany:
    def test_matches_per_query_results(self, values):
        column = UnsegmentedColumn(values)
        bounds = _batch_bounds(np.random.default_rng(10), 12) + [(7.0, 7.0)]
        batch = column.select_many(bounds)
        for (low, high), got in zip(bounds, batch):
            expected = column.select(low, high)
            assert _pairs(got) == _pairs(expected)

    def test_each_member_scans_the_column(self, values):
        # No batch kernel: the sequential fallback, one full-scan record per member.
        column = UnsegmentedColumn(values)
        column.select_many(_batch_bounds(np.random.default_rng(11), 8))
        assert len(column.history) == 8
        assert all(record.batch_size == 1 for record in column.history)
        assert all(record.reads_bytes == column.total_bytes for record in column.history)


class TestReplicatedSelectMany:
    def _column(self, values):
        column = ReplicatedColumn(values, model=AdaptivePageModel(m_min=3 * KB, m_max=12 * KB))
        for low in (20_000.0, 50_000.0, 80_000.0):  # a tree with nested replicas
            column.select(low, low + 4_000.0)
        return column

    def test_one_record_reads_each_pre_batch_cover_node_once(self, values):
        bounds = _batch_bounds(np.random.default_rng(12), 6)
        bounds += [bounds[0], (19_000.0, 26_000.0), (5.0, 5.0), (-10.0, 1_000.0)]
        batch_col = self._column(values.copy())
        serial_col = self._column(values.copy())
        covers = [batch_col.index.cover(ValueRange(low, high)) for low, high in bounds]
        distinct = {id(node): node.size_bytes for cover in covers for node in cover}
        assert sum(distinct.values()) < sum(node.size_bytes for cover in covers for node in cover)
        recorded = len(batch_col.history)
        batch = batch_col.select_many(bounds)
        for (low, high), got in zip(bounds, batch):
            assert _pairs(got) == _pairs(serial_col.select(low, high))
        assert len(batch_col.history) == recorded + 1
        record = batch_col.history[-1]
        assert record.batch_size == len(bounds)
        assert record.reads_bytes == sum(distinct.values())
        assert record.result_count == sum(got.count for got in batch)
        batch_col.check_invariants()

"""Unit tests for segments and selection results."""

import numpy as np
import pytest

from repro.core.ranges import ValueRange
from repro.core.segment import Segment, SelectionResult


@pytest.fixture
def segment() -> Segment:
    values = np.array([5, 50, 25, 75, 10, 99, 0], dtype=np.int32)
    return Segment(ValueRange(0, 100), values)


class TestSegmentBasics:
    def test_payload_is_value_sorted_with_cosorted_position_oids(self, segment):
        # The sorted layout keeps values ascending; the default oids are the
        # original positions, co-sorted so (oid, value) pairs are preserved.
        assert segment.values.tolist() == sorted([5, 50, 25, 75, 10, 99, 0])
        assert sorted(segment.oids.tolist()) == list(range(7))
        original = [5, 50, 25, 75, 10, 99, 0]
        for oid, value in zip(segment.oids.tolist(), segment.values.tolist()):
            assert original[oid] == value

    def test_count_and_size(self, segment):
        assert segment.count == 7
        assert segment.size_bytes == 7 * 4

    def test_materialized_flag(self, segment):
        assert segment.materialized
        virtual = Segment(ValueRange(0, 10), value_width=4, estimated_count=25)
        assert not virtual.materialized
        assert virtual.size_bytes == 100

    def test_mismatched_oids_rejected(self):
        with pytest.raises(ValueError):
            Segment(ValueRange(0, 10), np.array([1, 2]), np.array([0]))

    def test_virtual_requires_width(self):
        with pytest.raises(ValueError):
            Segment(ValueRange(0, 10))

    def test_check_invariants_detects_out_of_range_values(self):
        bad = Segment(ValueRange(0, 10), np.array([5, 42], dtype=np.int32))
        with pytest.raises(AssertionError):
            bad.check_invariants()


class TestEstimates:
    def test_uniform_estimate(self, segment):
        half = segment.estimate_count(ValueRange(0, 50))
        assert half == pytest.approx(3.5)
        assert segment.estimate_bytes(ValueRange(0, 50)) == pytest.approx(14.0)

    def test_estimate_outside_range_is_zero(self, segment):
        assert segment.estimate_count(ValueRange(200, 300)) == 0.0

    def test_virtual_segment_estimates(self):
        virtual = Segment(ValueRange(0, 100), value_width=4, estimated_count=10)
        assert virtual.estimate_count(ValueRange(0, 25)) == pytest.approx(2.5)


class TestSelectAndPartition:
    def test_select_returns_matching_pairs(self, segment):
        result = segment.select(ValueRange(10, 60))
        assert sorted(result.values.tolist()) == [10, 25, 50]
        assert set(result.oids.tolist()) == {1, 2, 4}

    def test_select_on_virtual_segment_fails(self):
        virtual = Segment(ValueRange(0, 10), value_width=4, estimated_count=5)
        with pytest.raises(RuntimeError):
            virtual.select(ValueRange(0, 5))

    def test_extract_creates_materialized_subsegment(self, segment):
        piece = segment.extract(ValueRange(0, 30))
        assert piece.materialized
        assert piece.vrange == ValueRange(0, 30)
        assert sorted(piece.values.tolist()) == [0, 5, 10, 25]

    def test_partition_conserves_values(self, segment):
        pieces = segment.partition([30, 70])
        assert [p.vrange for p in pieces] == [
            ValueRange(0, 30),
            ValueRange(30, 70),
            ValueRange(70, 100),
        ]
        rebuilt = np.concatenate([p.values for p in pieces])
        assert sorted(rebuilt.tolist()) == sorted(segment.values.tolist())
        for piece in pieces:
            piece.check_invariants()

    def test_partition_preserves_oid_value_pairing(self, segment):
        original = dict(zip(segment.oids.tolist(), segment.values.tolist()))
        pieces = segment.partition([50])
        for piece in pieces:
            for oid, value in zip(piece.oids.tolist(), piece.values.tolist()):
                assert original[oid] == value

    def test_partition_without_interior_points_returns_self(self, segment):
        assert segment.partition([1000]) == [segment]

    def test_partition_and_select_are_zero_copy_views(self, segment):
        pieces = segment.partition([30, 70])
        for piece in pieces:
            assert piece.values.base is segment.values or piece.values.size == 0
            assert piece.oids.base is segment.oids or piece.oids.size == 0
        result = segment.select(ValueRange(10, 60))
        assert result.values.base is segment.values

    def test_select_fully_contained_returns_whole_payload(self, segment):
        result = segment.select(ValueRange(-10, 1000))
        assert result.values is segment.values
        assert result.oids is segment.oids


class TestSelectionResult:
    def test_empty(self):
        result = SelectionResult.empty(np.dtype(np.int32))
        assert result.count == 0

    def test_concatenate(self):
        first = SelectionResult(np.array([1, 2], dtype=np.int32), np.array([0, 1], dtype=np.int64))
        second = SelectionResult(np.array([3], dtype=np.int32), np.array([2], dtype=np.int64))
        merged = SelectionResult.concatenate([first, second], np.dtype(np.int32))
        assert merged.count == 3
        assert merged.values.tolist() == [1, 2, 3]

    def test_concatenate_skips_empty_parts(self):
        empty = SelectionResult.empty(np.dtype(np.int32))
        merged = SelectionResult.concatenate([empty, empty], np.dtype(np.int32))
        assert merged.count == 0

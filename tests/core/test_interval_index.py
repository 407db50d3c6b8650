"""Unit tests for the interval index: leaves, answers, cover, publication."""

import numpy as np
import pytest

from repro.core.interval_index import IndexSnapshot, IntervalIndex
from repro.core.ranges import ValueRange
from repro.core.segment import Segment


def make_segment(low: float, high: float, count: int = 10) -> Segment:
    rng = np.random.default_rng(int(low) + 1)
    values = rng.uniform(low, high, size=count).astype(np.float64)
    return Segment(ValueRange(low, high), values)


@pytest.fixture
def index() -> IntervalIndex:
    """Segmentation's shape: every segment is a leaf and its own answer."""
    segments = [make_segment(0, 25), make_segment(25, 60), make_segment(60, 100)]
    return IntervalIndex(segments, segments)


@pytest.fixture
def laminar() -> tuple[IntervalIndex, Segment, Segment]:
    """Replication's shape: leaves answered by nested pieces (``inner`` ⊂ ``outer``)."""
    outer, inner = make_segment(0, 100, 40), make_segment(25, 50, 10)
    leaves = [make_segment(0, 25), inner, make_segment(50, 60), make_segment(60, 100)]
    return IntervalIndex(leaves, [outer, inner, outer, outer]), outer, inner


class TestMaintenance:
    def test_segments_kept_in_value_order(self, index):
        assert index.lows == sorted(index.lows)
        assert [segment.vrange.low for segment in index.answers] == index.lows

    def test_splice_replaces_a_leaf_by_its_pieces(self, index):
        target = index.answers[1]
        pieces = target.partition([40])
        start, stop = index.span(target.vrange)
        assert (start, stop) == (1, 2)
        index.splice(start, stop, pieces, pieces)
        assert len(index) == 4
        assert index.answers[1:3] == pieces
        index.check_invariants()

    def test_splice_glues_a_run_of_leaves(self, index):
        glued = make_segment(0, 60, 20)
        index.splice(0, 2, [glued], [glued])
        assert [segment.vrange for segment in index.answers] == [
            ValueRange(0, 60),
            ValueRange(60, 100),
        ]
        index.check_invariants()

    def test_repoint_moves_only_the_answers_spanning_the_range(self, laminar):
        index, outer, inner = laminar
        held = make_segment(0, 60, 30)  # a piece between inner and outer appears
        index.repoint(held.vrange, held)
        assert index.answers == [held, inner, held, outer]  # inner is nested: kept
        index.repoint(held.vrange, outer)  # and is released again
        assert index.answers == [outer, inner, outer, outer]
        index.check_invariants()


class TestCover:
    def test_middle_query(self, index):
        hits = index.cover(ValueRange(30, 70))
        assert [s.vrange for s in hits] == [ValueRange(25, 60), ValueRange(60, 100)]

    def test_half_open_bounds(self, index):
        hits = index.cover(ValueRange(25, 26))
        assert [s.vrange for s in hits] == [ValueRange(25, 60)]

    def test_empty_query(self, index):
        assert index.cover(ValueRange(50, 50)) == []

    def test_outside_domain(self, index):
        assert index.cover(ValueRange(500, 600)) == []
        assert index.cover(ValueRange(-50, -10)) == []

    def test_segmentation_cover_is_the_overlapped_leaves(self, index):
        assert index.cover(ValueRange(10, 80)) == index.answers

    def test_laminar_answers_fold_to_the_maximal_ones(self, laminar):
        index, outer, inner = laminar
        assert index.cover(ValueRange(30, 40)) == [inner]
        assert index.cover(ValueRange(30, 55)) == [outer]  # inner is inside outer
        assert index.cover(ValueRange(0, 100)) == [outer]
        assert index.cover(ValueRange(55, 70)) == [outer]  # consecutive duplicates fold

    def test_footprint_is_the_cover_bytes(self, index, laminar):
        expected = sum(s.size_bytes for s in index.cover(ValueRange(30, 70)))
        assert index.footprint(ValueRange(30, 70)) == expected
        nested, outer, _ = laminar
        assert nested.footprint(ValueRange(30, 55)) == outer.size_bytes


class TestPublication:
    def test_pin_captures_only_after_a_door_ran(self, index, laminar):
        first = index.pin()
        assert isinstance(first, IndexSnapshot)
        assert index.pin() is first
        target = index.answers[0]
        pieces = target.partition([10])
        index.splice(0, 1, pieces, pieces)
        assert index.pin() is not first
        assert index.pin().generation == first.generation + 1
        nested, outer, _ = laminar
        before = nested.pin()
        nested.repoint(ValueRange(0, 25), make_segment(0, 25))
        assert nested.pin().generation == before.generation + 1

    def test_snapshot_keeps_its_layout(self, index):
        pinned = index.pin()
        target = index.answers[1]
        pieces = target.partition([40])
        index.splice(1, 2, pieces, pieces)
        assert [s.vrange for s in pinned.cover(ValueRange(30, 50))] == [ValueRange(25, 60)]
        assert [s.vrange for s in index.pin().cover(ValueRange(30, 50))] == [
            ValueRange(25, 40),
            ValueRange(40, 60),
        ]

    def test_snapshot_holds_the_answer_segments(self, laminar):
        index, outer, inner = laminar
        assert index.pin().answers == (outer, inner, outer, outer)
        assert index.pin().cover(ValueRange(30, 55)) == [outer]


class TestInvariants:
    def test_check_invariants_passes_for_valid_index(self, index):
        index.pin()
        index.check_invariants()

    def test_check_invariants_detects_a_corrupt_leaf(self, index):
        index.lows[0] = 42.0  # simulate corruption
        with pytest.raises(AssertionError, match="empty or reversed"):
            index.check_invariants()

    def test_check_invariants_detects_an_answer_not_covering_its_leaf(self, index):
        index.answers[0] = index.answers[1]
        with pytest.raises(AssertionError, match="does not cover"):
            index.check_invariants()

    def test_check_invariants_detects_a_stale_snapshot(self, index):
        index.pin()
        index.answers[1] = make_segment(25, 60)  # behind the doors' back
        with pytest.raises(AssertionError, match="stale"):
            index.check_invariants()

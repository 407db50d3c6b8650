"""Unit tests for the interval index: leaves, answers, cover."""

import numpy as np
import pytest

from repro.core.interval_index import IntervalIndex
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

    def test_generation_counts_the_doors_and_not_the_lookups(self, laminar):
        index, outer, _ = laminar
        generation = index.generation
        index.cover(10, 70)
        index.span(ValueRange(10, 70))
        assert index.generation == generation
        index.repoint(outer.vrange, outer)
        assert index.generation == generation + 1
        pieces = index.answers[1].partition([40])
        index.splice(1, 2, pieces, pieces)
        assert index.generation == generation + 2


class TestCover:
    def test_middle_query(self, index):
        hits = index.cover(30, 70)
        assert [s.vrange for s in hits] == [ValueRange(25, 60), ValueRange(60, 100)]

    def test_half_open_bounds(self, index):
        hits = index.cover(25, 26)
        assert [s.vrange for s in hits] == [ValueRange(25, 60)]

    def test_empty_query(self, index):
        assert index.cover(50, 50) == []

    def test_outside_domain(self, index):
        assert index.cover(500, 600) == []
        assert index.cover(-50, -10) == []

    def test_segmentation_cover_is_the_overlapped_leaves(self, index):
        assert index.cover(10, 80) == index.answers

    def test_laminar_answers_fold_to_the_maximal_ones(self, laminar):
        index, outer, inner = laminar
        assert index.cover(30, 40) == [inner]
        assert index.cover(30, 55) == [outer]  # inner is inside outer
        assert index.cover(0, 100) == [outer]
        assert index.cover(55, 70) == [outer]  # consecutive duplicates fold

    def test_footprint_is_the_cover_bytes(self, index, laminar):
        expected = sum(s.size_bytes for s in index.cover(30, 70))
        assert index.footprint(ValueRange(30, 70)) == expected
        nested, outer, _ = laminar
        assert nested.footprint(ValueRange(30, 55)) == outer.size_bytes


class TestInvariants:
    def test_check_invariants_passes_for_valid_index(self, index):
        index.check_invariants()

    def test_check_invariants_detects_a_corrupt_leaf(self, index):
        index.lows[0] = 42.0  # simulate corruption
        with pytest.raises(AssertionError, match="empty or reversed"):
            index.check_invariants()

    def test_check_invariants_detects_an_answer_not_covering_its_leaf(self, index):
        index.answers[0] = index.answers[1]
        with pytest.raises(AssertionError, match="does not cover"):
            index.check_invariants()

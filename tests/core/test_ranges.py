"""Unit tests for value ranges."""

import numpy as np
import pytest

from repro.core.ranges import ValueRange, domain_of


class TestValueRangeBasics:
    def test_width_and_midpoint(self):
        vrange = ValueRange(10.0, 30.0)
        assert vrange.width == 20.0
        assert vrange.midpoint == 20.0

    def test_empty_range(self):
        assert ValueRange(5.0, 5.0).is_empty
        assert not ValueRange(5.0, 6.0).is_empty

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ValueRange(10.0, 5.0)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError):
            ValueRange(float("-inf"), 10.0)
        with pytest.raises(ValueError):
            ValueRange(0.0, float("nan"))

    def test_contains_is_half_open(self):
        vrange = ValueRange(0.0, 10.0)
        assert vrange.contains(0.0)
        assert vrange.contains(9.999)
        assert not vrange.contains(10.0)
        assert not vrange.contains(-0.001)

    def test_contains_range(self):
        outer = ValueRange(0.0, 100.0)
        assert outer.contains_range(ValueRange(0.0, 100.0))
        assert outer.contains_range(ValueRange(10.0, 20.0))
        assert not outer.contains_range(ValueRange(90.0, 101.0))

    def test_ordering_is_by_low_then_high(self):
        assert ValueRange(1.0, 5.0) < ValueRange(2.0, 3.0)
        assert ValueRange(1.0, 3.0) < ValueRange(1.0, 5.0)


class TestOverlapAndIntersection:
    def test_overlapping_ranges(self):
        assert ValueRange(0, 10).overlaps(ValueRange(5, 15))
        assert ValueRange(5, 15).overlaps(ValueRange(0, 10))

    def test_adjacent_ranges_do_not_overlap(self):
        assert not ValueRange(0, 10).overlaps(ValueRange(10, 20))

    def test_intersection(self):
        result = ValueRange(0, 10).intersect(ValueRange(5, 15))
        assert result == ValueRange(5, 10)

    def test_disjoint_intersection_is_empty(self):
        result = ValueRange(0, 10).intersect(ValueRange(20, 30))
        assert result.is_empty

    def test_fraction_of(self):
        assert ValueRange(0, 5).fraction_of(ValueRange(0, 10)) == pytest.approx(0.5)
        assert ValueRange(20, 30).fraction_of(ValueRange(0, 10)) == 0.0


class TestSplitting:
    def test_split_at_interior_points(self):
        pieces = ValueRange(0, 10).split_at([3, 7])
        assert pieces == [ValueRange(0, 3), ValueRange(3, 7), ValueRange(7, 10)]

    def test_split_ignores_exterior_and_boundary_points(self):
        pieces = ValueRange(0, 10).split_at([-5, 0, 10, 15])
        assert pieces == [ValueRange(0, 10)]

    def test_split_deduplicates_points(self):
        pieces = ValueRange(0, 10).split_at([5, 5.0, 5])
        assert pieces == [ValueRange(0, 5), ValueRange(5, 10)]

    def test_split_partitions_the_range(self):
        original = ValueRange(0, 100)
        pieces = original.split_at([12.5, 50, 80])
        assert pieces[0].low == original.low
        assert pieces[-1].high == original.high
        for first, second in zip(pieces, pieces[1:]):
            assert first.high == second.low

    def test_interior_points_sorted_unique(self):
        assert ValueRange(0, 10).interior_points([7, 3, 7]) == [3, 7]


class TestDomainOf:
    def test_integer_domain_includes_max(self):
        domain = domain_of(np.array([3, 9, 1], dtype=np.int32))
        assert domain.low == 1.0
        assert domain.high == 10.0
        assert domain.contains(9)

    def test_float_domain_includes_max(self):
        values = np.array([0.5, 2.5], dtype=np.float64)
        domain = domain_of(values)
        assert domain.contains(2.5)

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            domain_of(np.array([]))


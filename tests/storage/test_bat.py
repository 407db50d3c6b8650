"""Unit tests for the BAT storage primitive."""

import numpy as np
import pytest

from repro.storage.bat import BAT


class TestConstruction:
    def test_void_head_is_dense(self):
        bat = BAT(np.array([10.0, 20.0, 30.0]), hseqbase=5)
        assert bat.is_void_head
        assert bat.head.tolist() == [5, 6, 7]
        assert bat.count == 3

    def test_explicit_head(self):
        bat = BAT.from_pairs(np.array([3, 1]), np.array([30, 10]))
        assert not bat.is_void_head
        assert bat.head.tolist() == [3, 1]

    def test_empty(self):
        bat = BAT.empty(np.float64)
        assert bat.count == 0
        assert bat.tail.dtype == np.float64

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BAT(np.array([1, 2]), np.array([0]))

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError):
            BAT(np.zeros((2, 2)))

    def test_size_bytes(self):
        void = BAT(np.zeros(10, dtype=np.int32))
        explicit = BAT.from_pairs(np.arange(10), np.zeros(10, dtype=np.int32))
        assert void.size_bytes == 40
        assert explicit.size_bytes == 40 + 80  # tail + materialized int64 head


class TestOperations:
    def test_reverse_swaps_head_and_tail(self):
        bat = BAT.from_pairs(np.array([1, 2, 3]), np.array([10, 20, 30]))
        reversed_bat = bat.reverse()
        assert reversed_bat.head.tolist() == [10, 20, 30]
        assert reversed_bat.tail.tolist() == [1, 2, 3]

    def test_slice_preserves_void_oids(self):
        bat = BAT(np.array([10, 20, 30, 40]), hseqbase=100)
        piece = bat.slice(1, 3)
        assert piece.head.tolist() == [101, 102]
        assert piece.tail.tolist() == [20, 30]

    def test_slice_clamps_bounds(self):
        bat = BAT(np.array([1, 2, 3]))
        assert bat.slice(-5, 100).count == 3

    def test_take_oids_void_head(self):
        bat = BAT(np.array([10, 20, 30, 40]), hseqbase=0)
        taken = bat.take_oids(np.array([2, 0, 99]))
        assert taken.tail.tolist() == [30, 10]
        assert taken.head.tolist() == [2, 0]

    def test_take_oids_explicit_head(self):
        bat = BAT.from_pairs(np.array([5, 9, 7]), np.array([50, 90, 70]))
        taken = bat.take_oids(np.array([7, 5]))
        assert sorted(taken.tail.tolist()) == [50, 70]

    def test_append(self):
        first = BAT(np.array([1, 2]))
        second = BAT(np.array([3]), hseqbase=2)
        merged = first.append(second)
        assert merged.count == 3
        assert merged.head.tolist() == [0, 1, 2]

    def test_append_empty_keeps_contents(self):
        bat = BAT(np.array([1, 2]))
        merged = bat.append(BAT.empty(bat.tail.dtype))
        assert merged.count == 2
        assert merged is bat  # nothing to protect with a copy: BATs are immutable

    def test_reverse_carries_order_with_the_column(self):
        void = BAT(np.array([5, 3, 4]))
        assert void.head_sorted and not void.tail_sorted
        flipped = void.reverse()
        assert flipped.tail_sorted and not flipped.head_sorted
        deleted = BAT.from_pairs(np.array([2, 7]), np.array([2, 7]), tail_sorted=True)
        assert not deleted.head_sorted  # an explicit head's order is never promised...
        assert deleted.reverse().head_sorted  # ...it arrives from a sorted tail

    def test_copy_is_independent(self):
        bat = BAT(np.array([1, 2, 3]))
        clone = bat.copy()
        clone.tail[0] = 99
        assert bat.tail[0] == 1

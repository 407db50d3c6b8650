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

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BAT(np.array([1, 2]), np.array([0]))

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError):
            BAT(np.zeros((2, 2)))


class TestOperations:
    def test_slice_preserves_void_oids(self):
        bat = BAT(np.array([10, 20, 30, 40]), hseqbase=100)
        piece = bat.slice(1, 3)
        assert piece.head.tolist() == [101, 102]
        assert piece.tail.tolist() == [20, 30]

    def test_slice_clamps_bounds(self):
        bat = BAT(np.array([1, 2, 3]))
        assert bat.slice(-5, 100).count == 3

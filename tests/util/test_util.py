"""Unit tests for the util package (units, rng, stats, validation)."""

import numpy as np
import pytest

from repro.util.rng import DEFAULT_SEED, make_rng
from repro.util.stats import moving_average, zipf_probabilities
from repro.util.units import GB, KB, MB, format_bytes
from repro.util.validation import ensure_in_range, ensure_positive


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(3 * KB) == "3.0KB"
        assert format_bytes(2.5 * MB) == "2.5MB"
        assert format_bytes(1 * GB) == "1.0GB"

    def test_format_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestRNG:
    def test_default_seed_is_deterministic(self):
        assert make_rng().random() == make_rng(DEFAULT_SEED).random()

    def test_explicit_seed_changes_stream(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestStats:
    def test_moving_average_window(self):
        result = moving_average([1, 2, 3, 4], window=2)
        assert result.tolist() == [1.0, 1.5, 2.5, 3.5]

    def test_moving_average_head_shrinks(self):
        result = moving_average([4, 8, 12], window=10)
        assert result.tolist() == [4.0, 6.0, 8.0]

    def test_moving_average_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], window=0)

    def test_moving_average_empty(self):
        assert moving_average([], window=3).size == 0

    def test_zipf_probabilities_normalised_and_decreasing(self):
        probabilities = zipf_probabilities(100, exponent=1.0)
        assert probabilities.sum() == pytest.approx(1.0)
        assert np.all(np.diff(probabilities) <= 0)

    def test_zipf_zero_exponent_is_uniform(self):
        probabilities = zipf_probabilities(10, exponent=0.0)
        assert np.allclose(probabilities, 0.1)

    def test_zipf_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, exponent=-1)


class TestValidation:
    def test_ensure_positive(self):
        assert ensure_positive("x", 5) == 5
        with pytest.raises(ValueError):
            ensure_positive("x", 0)
        assert ensure_positive("x", 0, allow_zero=True) == 0
        with pytest.raises(ValueError):
            ensure_positive("x", -1, allow_zero=True)

    def test_ensure_in_range(self):
        assert ensure_in_range("x", 0.5, 0, 1) == 0.5
        with pytest.raises(ValueError):
            ensure_in_range("x", 2, 0, 1)

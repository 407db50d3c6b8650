"""Property tests: the sorted zero-copy kernels match the legacy mask kernels.

The pre-zero-copy ``Segment`` answered selections with a boolean mask over an
unsorted payload and splits with a bucket scan.  These reference kernels are
reproduced here and every sorted-kernel result is required to be
*permutation-equal* to them — same multiset of ``(oid, value)`` pairs — for
random columns, domains and query ranges.  Oids must stay consistent with
values under every operation (``values[oid] == value`` for positional oids).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ranges import ValueRange
from repro.core.segment import Segment, is_value_sorted

# -- reference (legacy) kernels ---------------------------------------------


def legacy_select(values, oids, low, high):
    mask = (values >= low) & (values < high)
    return values[mask], oids[mask]


def legacy_partition(values, oids, vrange, points):
    sub_ranges = vrange.split_at(points)
    cuts = [r.high for r in sub_ranges[:-1]]
    bucket = np.searchsorted(np.asarray(cuts), values, side="right")
    return [
        (sub, values[bucket == i], oids[bucket == i]) for i, sub in enumerate(sub_ranges)
    ]


def _pairs(values, oids):
    return sorted(zip(oids.tolist(), values.tolist()))


# -- strategies --------------------------------------------------------------

columns = st.integers(min_value=1, max_value=800)
seeds = st.integers(min_value=0, max_value=2**16)
domain_highs = st.integers(min_value=10, max_value=100_000)
dtypes = st.sampled_from([np.int32, np.int64, np.float64])


def _make(n, domain_high, dtype, seed):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        values = rng.integers(0, domain_high, size=n).astype(dtype)
    else:
        values = rng.uniform(0, domain_high, size=n).astype(dtype)
    return values


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=columns, domain_high=domain_highs, dtype=dtypes, seed=seeds,
       q_lo=st.floats(min_value=-0.2, max_value=1.2, allow_nan=False),
       q_width=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_sorted_select_is_permutation_equal_to_mask_select(
    n, domain_high, dtype, seed, q_lo, q_width
):
    values = _make(n, domain_high, dtype, seed)
    oids = np.arange(n, dtype=np.int64)
    segment = Segment(ValueRange(0, domain_high), values)
    low = q_lo * domain_high
    high = low + q_width * domain_high
    result = segment.select(ValueRange(low, max(low, high)))
    expected_values, expected_oids = legacy_select(values, oids, low, max(low, high))
    assert _pairs(result.values, result.oids) == _pairs(expected_values, expected_oids)
    # oids stay consistent with values: each oid points at its original value.
    assert np.array_equal(values[result.oids], result.values)
    # and the sorted layout returns values ascending.
    assert is_value_sorted(result.values)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=columns, domain_high=domain_highs, dtype=dtypes, seed=seeds,
       points=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=5))
def test_sorted_partition_is_permutation_equal_to_bucket_partition(
    n, domain_high, dtype, seed, points
):
    values = _make(n, domain_high, dtype, seed)
    oids = np.arange(n, dtype=np.int64)
    vrange = ValueRange(0, domain_high)
    cut_points = [p * domain_high for p in points]
    segment = Segment(vrange, values)
    pieces = segment.partition(cut_points)
    expected = legacy_partition(values, oids, vrange, cut_points)
    assert [p.vrange for p in pieces] == [sub for sub, _, _ in expected]
    for piece, (_, exp_values, exp_oids) in zip(pieces, expected):
        assert _pairs(piece.values, piece.oids) == _pairs(exp_values, exp_oids)
        assert np.array_equal(values[piece.oids], piece.values)
        piece.check_invariants()
    # The pieces together conserve the original multiset of pairs.
    all_pairs = sorted(
        pair for piece in pieces for pair in zip(piece.oids.tolist(), piece.values.tolist())
    )
    assert all_pairs == _pairs(values, oids)

"""Property-based tests for the substrate layers (operators, workloads)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mal import operators
from repro.storage.bat import BAT
from repro.workloads.generators import uniform_workload, zipf_workload

values_strategy = st.lists(
    st.integers(min_value=0, max_value=1_000), min_size=0, max_size=200
)


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, low=st.integers(0, 1_000), width=st.integers(0, 500))
def test_select_equals_numpy_filter(values, low, width):
    bat = BAT(np.array(values, dtype=np.int64))
    high = low + width
    result = operators.select(bat, low, high)
    expected = [v for v in values if low <= v < high]
    assert sorted(result.tail.tolist()) == sorted(expected)
    # The oid/value pairing survives selection.
    original = dict(enumerate(values))
    for oid, value in zip(result.head.tolist(), result.tail.tolist()):
        assert original[oid] == value


@settings(max_examples=60, deadline=None)
@given(left=values_strategy, right=values_strategy)
def test_kunion_and_kdifference_behave_like_sets(left, right):
    left_bat = BAT(np.array(left, dtype=np.int64))
    right_bat = BAT.from_pairs(
        np.arange(1_000, 1_000 + len(right), dtype=np.int64), np.array(right, dtype=np.int64)
    )
    union = operators.kunion(left_bat, right_bat)
    assert set(union.head.tolist()) == set(left_bat.head.tolist()) | set(right_bat.head.tolist())
    difference = operators.kdifference(union, right_bat)
    assert set(difference.head.tolist()) == set(left_bat.head.tolist()) - set(right_bat.head.tolist())


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
def test_tuple_reconstruction_round_trips(values):
    column = BAT(np.array(values, dtype=np.int64))
    candidates = operators.uselect(column, 0, 10_001)
    marked = operators.mark_tail(candidates, 0)
    positions = marked.reverse()
    rebuilt = operators.join(positions, column)
    assert rebuilt.tail.tolist() == values


@settings(max_examples=30, deadline=None)
@given(
    n_queries=st.integers(min_value=1, max_value=100),
    selectivity=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(["uniform", "zipf"]),
)
def test_generated_workloads_respect_domain_and_selectivity(n_queries, selectivity, seed, kind):
    domain = (0.0, 1_000_000.0)
    generator = uniform_workload if kind == "uniform" else zipf_workload
    workload = generator(n_queries, domain, selectivity, seed=seed)
    assert len(workload) == n_queries
    expected_width = (domain[1] - domain[0]) * selectivity
    for query in workload:
        assert domain[0] <= query.low <= query.high <= domain[1]
        assert query.width <= expected_width * 1.0001

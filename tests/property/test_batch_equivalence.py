"""Property: batch kernels are permutation-equal to per-query execution.

For every registered strategy, ``select_many`` over a batch of ranges —
overlapping, disjoint, duplicated and empty alike, drawn against uniform and
zipf-skewed columns — must return, per member, the same multiset of
``(oid, value)`` pairs that a fresh column of the same strategy returns when
the queries run one at a time through ``select``.  Two independent column
instances are compared so the batch path's adaptation (one pass per batch)
and the per-query path's adaptation (between queries) both run — adaptation
must never change answers.

Replication's batch kernel promises more: after every batch its replica tree
is exactly the tree the same members leave when they run one ``select`` at a
time, with and without a storage budget, under either model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.core.replication import ReplicatedColumn
from repro.core.strategy import available_strategies, create_strategy, strategy_class
from repro.util.stats import zipf_probabilities
from repro.util.units import KB

DOMAIN_HIGH = 50_000.0

seeds = st.integers(min_value=0, max_value=2**16)
column_sizes = st.integers(min_value=1, max_value=3_000)
batch_sizes = st.integers(min_value=1, max_value=12)
distributions = st.sampled_from(["uniform", "zipf"])
strategy_names = st.sampled_from(available_strategies())


def _make_column_values(size: int, distribution: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if distribution == "zipf":
        buckets = 64
        probabilities = zipf_probabilities(buckets, 1.1)
        bucket = rng.choice(buckets, size=size, p=probabilities)
        width = DOMAIN_HIGH / buckets
        return (bucket * width + rng.uniform(0.0, width, size=size)).astype(np.int32)
    return rng.integers(0, int(DOMAIN_HIGH), size=size).astype(np.int32)


def _make_bounds(n: int, seed: int, wide: float = DOMAIN_HIGH / 2) -> list[tuple[float, float]]:
    """Overlapping, disjoint, duplicate and empty ranges, randomly mixed.

    A wide range spans up to ``wide``.
    """
    rng = np.random.default_rng(seed)
    bounds: list[tuple[float, float]] = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        low = float(rng.uniform(0.0, DOMAIN_HIGH))
        if kind == 0:  # wide (likely overlapping something)
            bounds.append((low, float(low + rng.uniform(0.0, wide))))
        elif kind == 1:  # narrow
            bounds.append((low, float(low + rng.uniform(0.0, 50.0))))
        elif kind == 2:  # empty
            bounds.append((low, low))
        else:  # duplicate of an earlier range when one exists
            bounds.append(bounds[rng.integers(0, len(bounds))] if bounds else (low, low + 10.0))
    return bounds


def _build(name: str, values: np.ndarray):
    cls = strategy_class(name)
    model = AdaptivePageModel(m_min=1 * KB, m_max=4 * KB) if cls.requires_model else None
    return create_strategy(name, values, model=model)


def _pairs(result):
    return sorted(zip(result.oids.tolist(), np.asarray(result.values).tolist()))


@given(
    strategy=strategy_names,
    distribution=distributions,
    size=column_sizes,
    n_queries=batch_sizes,
    seed=seeds,
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_select_many_permutation_equal_to_select(
    strategy, distribution, size, n_queries, seed
):
    values = _make_column_values(size, distribution, seed)
    bounds = _make_bounds(n_queries, seed + 1)
    batch_column = _build(strategy, values.copy())
    serial_column = _build(strategy, values.copy())
    batch_results = batch_column.select_many(bounds)
    assert len(batch_results) == len(bounds)
    for (low, high), got in zip(bounds, batch_results):
        expected = serial_column.select(low, high)
        assert _pairs(got) == _pairs(expected)
        assert got.count == expected.count
    batch_column.check_invariants()
    serial_column.check_invariants()


#: Replication budgets, in bytes above the column: none, tight, roomy, and
#: none lowered to tight once replicas have piled up (the lowered budget is
#: met at the top of the next batch).
BUDGETS = {"none": None, "tight": 8 * KB, "roomy": 48 * KB, "lowered": None}
#: Model name -> factory of the model a column of that seed runs.
MODELS = {"apm": lambda seed: AdaptivePageModel(m_min=1 * KB, m_max=4 * KB), "gd": GaussianDice}
REPLICATION_ROWS = 20_000
WAVES = 30


def _replicated(values: np.ndarray, model: str, seed: int, budget: str) -> ReplicatedColumn:
    extra = BUDGETS[budget]
    return ReplicatedColumn(
        values,
        model=MODELS[model](seed),
        storage_budget=None if extra is None else values.nbytes + extra,
    )


def _tree(column: ReplicatedColumn) -> tuple:
    column.check_invariants()
    return (
        [(node.vrange, node.materialized, node.segment.count) for node in column.tree.walk()],
        column.tree.node_count,
        column.storage_bytes,
        column.peak_storage_bytes,
        column.accountant.total_writes_bytes,
    )


@given(seed=seeds, distribution=distributions)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("budget", list(BUDGETS))
def test_replication_batches_leave_the_tree_of_sequential_selects(
    budget, model, seed, distribution
):
    values = _make_column_values(REPLICATION_ROWS, distribution, seed)
    batched = _replicated(values.copy(), model, seed, budget)
    serial = _replicated(values.copy(), model, seed, budget)
    sizes = np.random.default_rng(seed).integers(1, 20, size=WAVES)
    for wave, size in enumerate(sizes.tolist()):
        if budget == "lowered" and wave == WAVES // 6:
            for column in (batched, serial):
                column.storage_budget = column.total_bytes + 8 * KB
        bounds = _make_bounds(size, seed + wave, wide=DOMAIN_HIGH / 8)
        results = batched.select_many(bounds)
        for (low, high), got in zip(bounds, results):
            assert _pairs(got) == _pairs(serial.select(low, high))
        assert _tree(batched) == _tree(serial)
        assert batched.history[-1].batch_size == size

"""Algorithm 3 stays: the interval index's cover equals the recursive oracle.

For each model (APM, GD), budget (none, 1.05× the column, the e2e
``replica_budget`` shape) and stream (uniform, multimodal), after every
``select``: the live index's cover is identity-equal to the recursion over
the live tree, and the tree's invariants — counters and index recounted from a walk — hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.core.ranges import ValueRange
from repro.core.replication import ReplicatedColumn
from repro.util.units import KB
from repro.workloads.generators import multimodal_workload, uniform_workload
from tests.conftest import TEST_DOMAIN
from tests.core.test_replication import replica_budget_shape
from tests.support.cover_oracle import minimal_cover

QUERIES = 300


def configuration(values: np.ndarray, model: str, budget: str, stream: str) -> tuple:
    """The column and its query stream for one point of the grid."""
    if budget == "replica_budget":
        shape = replica_budget_shape()
        values, domain, bounds = shape["values"], shape["domain"], shape["bounds"]
        storage_budget = shape["budget"]
    else:
        domain, bounds = TEST_DOMAIN, (3 * KB, 12 * KB)
        storage_budget = None if budget == "none" else values.nbytes * float(budget)
    if stream == "uniform":
        queries = uniform_workload(QUERIES, domain, 0.02, seed=31)
    else:
        queries = multimodal_workload(QUERIES, domain, 0.02, n_modes=4, seed=29)
    segmentation_model = (
        AdaptivePageModel(m_min=bounds[0], m_max=bounds[1])
        if model == "apm"
        else GaussianDice(seed=3)
    )
    column = ReplicatedColumn(
        values, model=segmentation_model, domain=domain, storage_budget=storage_budget
    )
    return column, list(queries)


@pytest.mark.parametrize("stream", ["uniform", "multimodal"])
@pytest.mark.parametrize("budget", ["none", "1.05", "replica_budget"])
@pytest.mark.parametrize("model", ["apm", "gd"])
def test_index_cover_is_the_recursive_cover_after_every_select(values, model, budget, stream):
    column, queries = configuration(values, model, budget, stream)
    materialized = dropped = 0
    for position, query in enumerate(queries):
        column.select(query.low, query.high)
        materialized += column.history[-1].replicas_materialized
        dropped += column.history[-1].segments_dropped
        upcoming = queries[(position + 1) % len(queries)]
        for probe in (query, upcoming):
            probe = ValueRange(probe.low, probe.high).intersect(column.domain)
            oracle = minimal_cover(column.tree.roots, probe)
            live = column.index.cover(probe)
            assert len(live) == len(oracle) and all(a is b for a, b in zip(live, oracle))
        column.check_invariants()
    assert materialized > 10  # the tree really grew
    if budget != "none":
        assert dropped > 0  # and the budget really pressed

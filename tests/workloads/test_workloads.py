"""Unit tests for workload generation (uniform, Zipf, hotspot, changing, SkyServer)."""

import numpy as np
import pytest

from repro.workloads.generators import (
    changing_workload,
    hotspot_workload,
    make_column,
    uniform_workload,
    zipf_workload,
)
from repro.workloads.query import RangeQuery
from repro.workloads.skyserver import (
    RA_DOMAIN,
    SkyServerDataset,
    skyserver_column,
    skyserver_dataset,
    skyserver_workload,
)

DOMAIN = (0.0, 1_000_000.0)


def covered_fraction(workload) -> float:
    """Share of the workload's domain that at least one query touches."""
    covered, reach = 0.0, -np.inf
    for low, high in sorted((query.low, query.high) for query in workload):
        covered += max(0.0, high - max(low, reach))
        reach = max(reach, high)
    return covered / (workload.domain[1] - workload.domain[0])


class TestRangeQueryAndWorkload:
    def test_range_query_validation(self):
        with pytest.raises(ValueError):
            RangeQuery(10, 5)
        query = RangeQuery(5, 10)
        assert query.width == 5
        assert query.vrange.low == 5

    def test_workload_len_iteration_and_indexing(self):
        workload = uniform_workload(50, DOMAIN, 0.1, seed=1)
        assert len(workload) == 50
        assert list(workload) == workload.queries
        assert workload[3] == workload.queries[3]
        assert workload[:10] == workload.queries[:10]


class TestColumnGeneration:
    def test_make_column_properties(self):
        column = make_column(10_000, 1_000_000, seed=3)
        assert column.size == 10_000
        assert column.dtype == np.int32
        assert column.min() >= 0 and column.max() < 1_000_000

    def test_make_column_reproducible(self):
        assert np.array_equal(make_column(1000, 100, seed=1), make_column(1000, 100, seed=1))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_column(0)


class TestGenerators:
    @pytest.mark.parametrize("selectivity", [0.1, 0.01])
    def test_uniform_query_width_matches_selectivity(self, selectivity):
        workload = uniform_workload(200, DOMAIN, selectivity, seed=7)
        widths = [q.width for q in workload]
        expected = (DOMAIN[1] - DOMAIN[0]) * selectivity
        assert all(abs(w - expected) < 1e-6 for w in widths)

    def test_queries_stay_inside_domain(self):
        for workload in (
            uniform_workload(300, DOMAIN, 0.1, seed=1),
            zipf_workload(300, DOMAIN, 0.1, seed=1),
            hotspot_workload(300, DOMAIN, 0.01, seed=1),
            changing_workload(300, DOMAIN, 0.01, seed=1),
        ):
            for query in workload:
                assert DOMAIN[0] <= query.low <= query.high <= DOMAIN[1]

    def test_generators_are_reproducible(self):
        first = zipf_workload(50, DOMAIN, 0.1, seed=9)
        second = zipf_workload(50, DOMAIN, 0.1, seed=9)
        assert [(q.low, q.high) for q in first] == [(q.low, q.high) for q in second]

    def test_zipf_is_more_skewed_than_uniform(self):
        uniform = uniform_workload(2000, DOMAIN, 0.01, seed=5)
        zipf = zipf_workload(2000, DOMAIN, 0.01, seed=5)
        # Measure skew as the spread of query start positions over 20 buckets.
        def bucket_counts(workload):
            starts = np.array([q.low for q in workload])
            counts, _ = np.histogram(starts, bins=20, range=DOMAIN)
            return counts

        assert bucket_counts(zipf).max() > 2 * bucket_counts(uniform).max()

    def test_hotspot_confines_queries(self):
        workload = hotspot_workload(500, DOMAIN, 0.001, n_hotspots=2, hotspot_fraction=0.01, seed=3)
        assert covered_fraction(workload) < 0.05

    def test_changing_workload_has_phases(self):
        workload = changing_workload(200, DOMAIN, 0.005, n_phases=4, seed=3)
        starts = np.array([q.low for q in workload])
        phase_means = [starts[i * 50 : (i + 1) * 50].mean() for i in range(4)]
        assert len({round(m, -3) for m in phase_means}) >= 3  # phases sit in different areas
        within_phase_spread = np.std(starts[:50])
        assert within_phase_spread < (DOMAIN[1] - DOMAIN[0]) * 0.05

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            uniform_workload(0, DOMAIN, 0.1)
        with pytest.raises(ValueError):
            uniform_workload(10, DOMAIN, 1.5)
        with pytest.raises(ValueError):
            uniform_workload(10, DOMAIN, 0.0)


class TestSkyServer:
    def test_column_shape_and_domain(self):
        ra = skyserver_column(50_000, seed=2)
        assert ra.dtype == np.float64
        assert ra.min() >= RA_DOMAIN[0] and ra.max() < RA_DOMAIN[1]

    def test_column_is_not_uniform(self):
        ra = skyserver_column(100_000, seed=2)
        counts, _ = np.histogram(ra, bins=36, range=RA_DOMAIN)
        assert counts.max() > 3 * counts.min() + 1  # survey stripes create dense areas

    def test_dataset_scales_apm_bounds(self):
        dataset = skyserver_dataset(100_000, seed=2)
        assert isinstance(dataset, SkyServerDataset)
        assert dataset.column_bytes == 800_000
        ratio = dataset.m_max_large / dataset.m_min
        assert ratio == pytest.approx(25.0)

    def test_workload_kinds(self):
        for kind in ("random", "skewed", "changing"):
            workload = skyserver_workload(kind, 100, seed=4)
            assert len(workload) == 100
            assert workload.name.startswith("skyserver")
        with pytest.raises(ValueError):
            skyserver_workload("sorted")

    def test_skewed_workload_touches_two_areas(self):
        workload = skyserver_workload("skewed", 200, seed=4)
        assert covered_fraction(workload) < 0.05

"""Workload clustering: seeded numpy k-means over (center, width) features."""

import numpy as np
import pytest

from repro.cluster.workload_clustering import (
    WorkloadClustering,
    cluster_workload,
    kmeans,
    query_features,
)
from repro.workloads import multimodal_workload

DOMAIN = (0.0, 360.0)


def modes_workload(n=200, n_modes=4, seed=11):
    workload = multimodal_workload(
        n, DOMAIN, selectivity=0.005, n_modes=n_modes, seed=seed
    )
    lows = np.array([q.low for q in workload.queries])
    highs = np.array([q.high for q in workload.queries])
    return workload, lows, highs


class TestQueryFeatures:
    def test_normalized_to_unit_square(self):
        features = query_features(
            np.array([0.0, 100.0, 359.0]),
            np.array([10.0, 150.0, 360.0]),
            domain_low=0.0,
            domain_high=360.0,
        )
        assert features.shape == (3, 2)
        assert (features >= 0.0).all() and (features <= 1.0).all()

    def test_center_and_width_semantics(self):
        features = query_features(
            np.array([90.0]), np.array([270.0]), domain_low=0.0, domain_high=360.0
        )
        assert features[0, 0] == pytest.approx(0.5)  # center at mid-domain
        assert features[0, 1] == pytest.approx(0.5)  # half-domain width

    def test_infinite_bounds_clip_to_domain(self):
        features = query_features(
            np.array([-np.inf]), np.array([np.inf]), domain_low=0.0, domain_high=360.0
        )
        assert features[0, 0] == pytest.approx(0.5)
        assert features[0, 1] == pytest.approx(1.0)

    def test_inverted_bounds_clamp_to_empty(self):
        features = query_features(
            np.array([200.0]), np.array([100.0]), domain_low=0.0, domain_high=360.0
        )
        assert features[0, 1] == 0.0


class TestKmeans:
    def test_deterministic_for_fixed_seed(self):
        _, lows, highs = modes_workload(seed=3)
        features = query_features(lows, highs, domain_low=0.0, domain_high=360.0)
        first = kmeans(features, 4, seed=42)
        second = kmeans(features, 4, seed=42)
        assert np.array_equal(first[1], second[1])
        assert np.allclose(first[0], second[0])

    def test_recovers_disjoint_modes(self):
        # 4 disjoint narrow modes must land in 4 distinct clusters, with
        # every query of a mode labelled identically.
        workload, lows, highs = modes_workload(n=200, n_modes=4, seed=5)
        clustering = cluster_workload(
            lows, highs, 4, domain_low=0.0, domain_high=360.0, seed=0
        )
        labels = clustering.labels
        mode_of_query = np.arange(200) % 4  # multimodal interleaves modes
        for mode in range(4):
            mode_labels = set(labels[mode_of_query == mode].tolist())
            assert len(mode_labels) == 1
        assert len({labels[mode] for mode in range(4)}) == 4

    def test_k_clamped_to_n_points(self):
        centroids, labels, _ = kmeans(np.array([[0.1, 0.1], [0.9, 0.1]]), 8, seed=0)
        assert centroids.shape[0] == 2
        assert sorted(set(labels.tolist())) == [0, 1]

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 2)

    def test_identical_points_single_cluster_behaviour(self):
        features = np.full((10, 2), 0.25)
        centroids, labels, inertia = kmeans(features, 3, seed=1)
        assert inertia == pytest.approx(0.0)
        assert len(labels) == 10


class TestWorkloadClustering:
    def test_assign_is_stable_on_training_data(self):
        _, lows, highs = modes_workload(seed=13)
        clustering = cluster_workload(
            lows, highs, 4, domain_low=0.0, domain_high=360.0, seed=0
        )
        assigned = [clustering.assign_one(low, high) for low, high in zip(lows, highs)]
        assert assigned == clustering.labels.tolist()

    def test_sizes_cover_all_queries(self):
        _, lows, highs = modes_workload(n=120, seed=2)
        clustering = cluster_workload(
            lows, highs, 4, domain_low=0.0, domain_high=360.0, seed=0
        )
        assert int(clustering.sizes().sum()) == 120

    def test_describe_reports_domain_units(self):
        _, lows, highs = modes_workload(seed=21)
        clustering = cluster_workload(
            lows, highs, 4, domain_low=0.0, domain_high=360.0, seed=0
        )
        description = clustering.describe()
        assert description["n_clusters"] == 4
        for cluster in description["clusters"]:
            assert 0.0 <= cluster["center"] <= 360.0
            assert cluster["trained_on"] > 0

    def test_multimodal_workload_seed_is_deterministic(self):
        # The satellite contract: explicit seeds make partition assignments
        # reproducible in CI.
        first = multimodal_workload(50, DOMAIN, 0.01, seed=77)
        second = multimodal_workload(50, DOMAIN, 0.01, seed=77)
        assert [(q.low, q.high) for q in first.queries] == [
            (q.low, q.high) for q in second.queries
        ]
        assert first.metadata["mode_lows"] == second.metadata["mode_lows"]

    def test_multimodal_modes_are_disjoint(self):
        workload = multimodal_workload(80, DOMAIN, 0.005, n_modes=4, seed=1)
        mode_lows = workload.metadata["mode_lows"]
        band = (DOMAIN[1] - DOMAIN[0]) / 4
        for index, mode_low in enumerate(mode_lows):
            assert index * band <= mode_low < (index + 1) * band

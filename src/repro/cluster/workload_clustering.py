"""Cluster recent query shapes by range similarity.

The router's first job is to discover the *modes* of the workload: groups of
range queries that touch the same region of the attribute domain at similar
widths.  Each query is embedded as a two-dimensional feature vector —
normalized range **center** and **width**, computed from the bound
parameters — and the recent history is partitioned with a small seeded
k-means over numpy (Hang 2024 clusters on query similarity too, but reaches
for ``scipy.cluster``; the feature space here is tiny, so a dozen lines of
Lloyd iterations with a k-means++ seeding are all that is needed and the
dependency stays out).

Everything is deterministic for a fixed ``seed``: CI asserts exact partition
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import make_rng

__all__ = ["WorkloadClustering", "cluster_workload", "kmeans", "query_features"]

#: Guard against zero-width domains when normalizing features.
_MIN_SPAN = 1e-12


def query_features(
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    domain_low: float,
    domain_high: float,
) -> np.ndarray:
    """``(n, 2)`` feature rows ``(center, width)`` normalized to the domain.

    Bounds are clipped into ``[domain_low, domain_high]`` first (open-ended
    SQL predicates arrive as ``±inf``), so every feature lands in ``[0, 1]``
    and center and width carry equal weight in the distance metric.
    """
    span = max(float(domain_high) - float(domain_low), _MIN_SPAN)
    lows = np.clip(np.asarray(lows, dtype=np.float64), domain_low, domain_high)
    highs = np.clip(np.asarray(highs, dtype=np.float64), domain_low, domain_high)
    highs = np.maximum(highs, lows)
    centers = ((lows + highs) * 0.5 - domain_low) / span
    widths = (highs - lows) / span
    return np.column_stack([centers, widths])


def kmeans(
    features: np.ndarray,
    n_clusters: int,
    *,
    seed: int | None = None,
    max_iterations: int = 32,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded Lloyd's k-means with k-means++ initialisation.

    Returns ``(centroids, labels, inertia)``.  Deterministic for a fixed
    ``seed``; empty clusters are re-seeded on the point farthest from its
    centroid so exactly ``n_clusters`` centroids always come back.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty feature set")
    n_clusters = min(int(n_clusters), n)
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    rng = make_rng(seed)

    # k-means++ seeding: spread the initial centroids over the data.
    centroids = np.empty((n_clusters, features.shape[1]), dtype=np.float64)
    centroids[0] = features[rng.integers(0, n)]
    closest = ((features - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, n_clusters):
        total = closest.sum()
        if total <= 0.0:  # all remaining points coincide with a centroid
            centroids[k] = features[rng.integers(0, n)]
            continue
        probabilities = closest / total
        centroids[k] = features[rng.choice(n, p=probabilities)]
        closest = np.minimum(closest, ((features - centroids[k]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iterations):
        distances = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        for k in range(n_clusters):
            members = features[new_labels == k]
            if members.size:
                centroids[k] = members.mean(axis=0)
            else:  # re-seed an empty cluster on the worst-served point
                farthest = distances[np.arange(n), new_labels].argmax()
                centroids[k] = features[farthest]
                new_labels[farthest] = k
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    inertia = float(((features - centroids[labels]) ** 2).sum())
    return centroids, labels, inertia


@dataclass
class WorkloadClustering:
    """A fitted partition of recent query shapes.

    ``assign_one`` is the router's per-query hot path: one vectorized
    distance over ``k`` centroids (k is single digits), a few microseconds.
    """

    centroids: np.ndarray
    labels: np.ndarray = field(repr=False)
    inertia: float
    domain_low: float
    domain_high: float

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def sizes(self) -> np.ndarray:
        """Training-set member count per cluster."""
        return np.bincount(self.labels, minlength=self.n_clusters)

    def assign_one(self, low: float, high: float) -> int:
        """Nearest-centroid label for one query (router hot path)."""
        span = max(self.domain_high - self.domain_low, _MIN_SPAN)
        low = min(max(low, self.domain_low), self.domain_high)
        high = min(max(high, low), self.domain_high)
        center = ((low + high) * 0.5 - self.domain_low) / span
        width = (high - low) / span
        distances = (self.centroids[:, 0] - center) ** 2 + (
            self.centroids[:, 1] - width
        ) ** 2
        return int(distances.argmin())

    def describe(self) -> dict:
        """Summary for ``router_stats()``: centroids in domain units."""
        span = self.domain_high - self.domain_low
        sizes = self.sizes()
        return {
            "n_clusters": self.n_clusters,
            "inertia": self.inertia,
            "clusters": [
                {
                    "center": float(self.centroids[k, 0] * span + self.domain_low),
                    "width": float(self.centroids[k, 1] * span),
                    "trained_on": int(sizes[k]),
                }
                for k in range(self.n_clusters)
            ],
        }


def cluster_workload(
    lows: np.ndarray,
    highs: np.ndarray,
    n_clusters: int,
    *,
    domain_low: float,
    domain_high: float,
    seed: int | None = None,
) -> WorkloadClustering:
    """Fit a :class:`WorkloadClustering` over recent query bounds."""
    features = query_features(
        lows, highs, domain_low=domain_low, domain_high=domain_high
    )
    centroids, labels, inertia = kmeans(features, n_clusters, seed=seed)
    return WorkloadClustering(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        domain_low=float(domain_low),
        domain_high=float(domain_high),
    )

"""Statistical helpers used by the benchmark harness and workload generators."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Simple trailing moving average with a shrinking head window.

    The paper's Figures 12, 14 and 16 report a *moving average* of per-query
    times; the first ``window - 1`` points average over the queries seen so
    far, which matches the visual behaviour of those plots.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("moving_average expects a one-dimensional sequence")
    if arr.size == 0:
        return arr.copy()
    cumsum = np.cumsum(arr)
    result = np.empty_like(arr)
    for i in range(arr.size):
        start = max(0, i - window + 1)
        total = cumsum[i] - (cumsum[start - 1] if start > 0 else 0.0)
        result[i] = total / (i - start + 1)
    return result


def zipf_probabilities(n_ranks: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf probabilities ``p(k) ∝ 1 / k**exponent`` for ranks 1..n.

    Used by the skewed workload generator: query positions are drawn from a
    Zipf distribution over discretised buckets of the attribute domain.
    """
    if n_ranks <= 0:
        raise ValueError(f"n_ranks must be positive, got {n_ranks}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, n_ranks + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()

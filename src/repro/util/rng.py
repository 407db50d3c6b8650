"""Random-number-generation helpers.

Everything stochastic in the library (the Gaussian Dice model, the workload
generators, synthetic data) is driven by :class:`numpy.random.Generator`
instances created here, so experiments are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20080325  # EDBT 2008 started on March 25th, 2008.


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from ``seed``.

    ``None`` falls back to :data:`DEFAULT_SEED` so that the library is
    deterministic by default; pass an explicit seed to vary runs.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)

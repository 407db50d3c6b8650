"""SQL bound semantics translated into half-open ``[low, high)`` float ranges.

SQL's ``BETWEEN`` is inclusive on both sides and comparison predicates can be
open on either side, while the adaptive columns, the plain-column overlap
clustering and the router's workload clustering all work on half-open
ranges.  An exclusive low and an inclusive high each move one float up
(``nextafter``); infinite bounds are left alone.  Getting these edges wrong
silently loses boundary tuples, so the policy lives here, once, for every
layer that needs it.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

__all__ = ["half_open", "half_open_in_domain", "half_open_in_domain_many"]


def half_open(
    low: float, high: float, include_low: bool, include_high: bool
) -> tuple[float, float]:
    """The domain-free translation (``±inf`` bounds stay infinite).

    Used where no column domain applies: the plain-column batch pass's
    overlap clustering and the router's workload history.
    """
    low = float(low)
    high = float(high)
    if not include_low and math.isfinite(low):
        low = math.nextafter(low, math.inf)
    if include_high and math.isfinite(high):
        high = math.nextafter(high, math.inf)
    return low, high


def half_open_in_domain(
    domain: Any, low: float, high: float, include_low: bool, include_high: bool
) -> tuple[float, float]:
    """The translation clamped to an adaptive column's ``domain``.

    Scalar ``math`` predicates throughout — this runs once per query on the
    hot path, and ``math.nextafter`` is bit-identical to numpy's for float64
    operands.
    """
    low = float(low)
    high = float(high)
    low_finite = math.isfinite(low)
    high_finite = math.isfinite(high)
    effective_low = max(low, domain.low) if low_finite else domain.low
    effective_high = min(high, domain.high) if high_finite else domain.high
    if not include_low and low_finite:
        effective_low = math.nextafter(effective_low, math.inf)
    if include_high and high_finite:
        effective_high = math.nextafter(effective_high, math.inf)
    effective_high = min(effective_high, domain.high)
    effective_low = max(min(effective_low, effective_high), domain.low)
    # A range entirely below the domain is empty, not reversed.
    return effective_low, max(effective_high, effective_low)


def half_open_in_domain_many(
    domain: Any, bounds: Sequence[tuple[float, float, bool, bool]]
) -> np.ndarray:
    """Vectorized :func:`half_open_in_domain` for a batch of SQL bounds.

    Returns an ``(n, 2)`` float64 array of half-open ``[low, high)`` pairs,
    bit-identical per member to the scalar translation.
    """
    lows = np.asarray([low for low, _, _, _ in bounds], dtype=np.float64)
    highs = np.asarray([high for _, high, _, _ in bounds], dtype=np.float64)
    include_low = np.asarray([incl for _, _, incl, _ in bounds], dtype=bool)
    include_high = np.asarray([inch for _, _, _, inch in bounds], dtype=bool)
    low_finite = np.isfinite(lows)
    high_finite = np.isfinite(highs)
    effective_low = np.where(low_finite, np.maximum(lows, domain.low), domain.low)
    effective_high = np.where(high_finite, np.minimum(highs, domain.high), domain.high)
    bump_low = ~include_low & low_finite
    if bump_low.any():
        effective_low = np.where(
            bump_low, np.nextafter(effective_low, np.inf), effective_low
        )
    bump_high = include_high & high_finite
    if bump_high.any():
        effective_high = np.where(
            bump_high, np.nextafter(effective_high, np.inf), effective_high
        )
    effective_high = np.minimum(effective_high, domain.high)
    effective_low = np.maximum(np.minimum(effective_low, effective_high), domain.low)
    return np.column_stack([effective_low, np.maximum(effective_high, effective_low)])

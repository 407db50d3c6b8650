"""Value ranges over an attribute domain.

The paper organises a column into segments, each covering "a contiguous range
of attribute values".  Its pseudo-code uses inclusive integer bounds
(``[SL, SH]`` with splits at ``qh + 1``).  We normalise everything to
*half-open* ranges ``[low, high)`` which behave identically for integer
domains and extend cleanly to real-valued domains such as the SkyServer
right-ascension column; a split point ``p`` always produces ``[low, p)`` and
``[p, high)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True, slots=True)
class ValueRange:
    """Half-open interval ``[low, high)`` over the attribute domain.

    Ranges are constructed in large numbers on the query hot path (split
    decisions build several per candidate segment), so validation sticks to
    scalar ``math`` predicates and the class carries ``__slots__``.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.low) or not math.isfinite(self.high):
            raise ValueError(f"range bounds must be finite, got [{self.low}, {self.high})")
        if self.high < self.low:
            raise ValueError(f"range high must be >= low, got [{self.low}, {self.high})")

    # -- basic geometry -------------------------------------------------

    @property
    def width(self) -> float:
        """Extent of the range in domain units."""
        return self.high - self.low

    @property
    def is_empty(self) -> bool:
        """True when the range covers no domain values."""
        return self.high <= self.low

    @property
    def midpoint(self) -> float:
        """Centre of the range; used by APM rule 3 as the fallback split point."""
        return self.low + self.width / 2.0

    def contains(self, value: float) -> bool:
        """True when ``low <= value < high``."""
        return self.low <= value < self.high

    def contains_range(self, other: "ValueRange") -> bool:
        """True when ``other`` lies entirely within this range."""
        return self.low <= other.low and other.high <= self.high

    def overlaps(self, other: "ValueRange") -> bool:
        """True when the two ranges share at least one domain value."""
        return self.low < other.high and other.low < self.high

    def intersect(self, other: "ValueRange") -> "ValueRange":
        """The overlapping part of the two ranges (possibly empty)."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if high < low:
            return ValueRange(low, low)
        return ValueRange(low, high)

    def fraction_of(self, other: "ValueRange") -> float:
        """Fraction of ``other``'s width covered by this range (0.0 when empty).

        Computed inline (equivalent to ``intersect(other).width / other.width``
        but without constructing the intersection) — split decisions evaluate
        this several times per query.
        """
        width = other.high - other.low
        if width <= 0.0:
            return 0.0
        low = self.low if self.low > other.low else other.low
        high = self.high if self.high < other.high else other.high
        if high <= low:
            return 0.0
        return (high - low) / width

    # -- splitting -------------------------------------------------------

    def interior_points(self, points: Iterable[float]) -> list[float]:
        """Sorted unique split points strictly inside the range."""
        unique = sorted({float(p) for p in points})
        return [p for p in unique if self.low < p < self.high]

    def split_at(self, points: Iterable[float]) -> list["ValueRange"]:
        """Split into adjacent sub-ranges at every point strictly inside.

        Points outside ``(low, high)`` are ignored; duplicates collapse.
        The result always partitions the original range.
        """
        cuts = self.interior_points(points)
        bounds = [self.low, *cuts, self.high]
        return [ValueRange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.low:g}, {self.high:g})"


def domain_of(values: np.ndarray) -> ValueRange:
    """The smallest half-open range containing every value of the array.

    For integer columns the upper bound is ``max + 1``; for floating-point
    columns it is the next representable number above the maximum so that the
    maximum itself is always inside the domain.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError("cannot derive a domain from an empty column")
    low = float(arr.min())
    high = float(arr.max())
    if np.issubdtype(arr.dtype, np.integer):
        return ValueRange(low, high + 1.0)
    return ValueRange(low, float(np.nextafter(high, np.inf)))

"""Segmentation models: the policies that decide whether to reorganize.

The paper (§3.2) defines two models.  Both receive a selection predicate and a
candidate segment and answer the question "should this query's bounds be used
to split/replicate the segment?":

* **Gaussian Dice (GD)** — a randomized policy.  With ``x`` the size ratio of
  the produced piece to the candidate segment and ``sigma`` the ratio of the
  candidate segment to the whole column, the query is used for reorganization
  with probability ``O(x) = G(x) / G(0.5)`` where ``G`` is the Gaussian pdf
  with mean 0.5 and standard deviation ``sigma``.  Balanced splits of large
  segments are therefore preferred, while point queries rarely fragment the
  column.

* **Adaptive Page Model (APM)** — a deterministic policy with two byte bounds
  ``Mmin < Mmax``.  Segments below ``Mmin`` are never split; splits at the
  query bounds are accepted when every resulting piece is at least ``Mmin``;
  otherwise segments larger than ``Mmax`` are still split, at a single point
  chosen among the query bounds (the one producing the smaller query-side
  piece) or at the approximate middle of the segment.

Both models work from *size estimates* so no data is touched at decision time.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from repro.core.ranges import ValueRange
from repro.util.rng import make_rng
from repro.util.units import KB
from repro.util.validation import ensure_positive


class SegmentLike(Protocol):
    """The minimal segment view a model needs: a range and size estimates."""

    vrange: ValueRange

    @property
    def size_bytes(self) -> float: ...

    def estimate_bytes(self, sub: ValueRange) -> float: ...


class SplitAction(Enum):
    """What the model recommends doing with the candidate segment."""

    NO_SPLIT = "no_split"
    SPLIT_AT_BOUNDS = "split_at_bounds"
    SPLIT_AT_POINT = "split_at_point"


@dataclass(frozen=True)
class SplitDecision:
    """Outcome of a model decision.

    ``points`` holds the domain values at which the segment should be cut:
    the clipped query bounds for :data:`SplitAction.SPLIT_AT_BOUNDS`, a single
    point for :data:`SplitAction.SPLIT_AT_POINT`, and the empty tuple for
    :data:`SplitAction.NO_SPLIT`.
    """

    action: SplitAction
    points: tuple[float, ...] = ()

    @property
    def should_split(self) -> bool:
        """True when the segment should be reorganized."""
        return self.action is not SplitAction.NO_SPLIT

    @classmethod
    def no_split(cls) -> "SplitDecision":
        return cls(SplitAction.NO_SPLIT)


def _clip_points(query: ValueRange, segment_range: ValueRange) -> list[float]:
    """Query bounds strictly inside the segment (the candidate cut points)."""
    return segment_range.interior_points([query.low, query.high])


class SegmentationModel(ABC):
    """Base class for segmentation models (GD, APM and extensions)."""

    name: str = "model"

    @abstractmethod
    def decide(
        self,
        query: ValueRange,
        segment: SegmentLike,
        *,
        total_bytes: float,
    ) -> SplitDecision:
        """Decide whether (and where) the segment should be reorganized.

        Parameters
        ----------
        query:
            The selection predicate range.
        segment:
            The candidate segment (only range and size estimates are used).
        total_bytes:
            Size of the whole column; used by GD to scale its tolerance.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class GaussianDice(SegmentationModel):
    """The randomized Gaussian Dice policy (§3.2.1)."""

    name = "GD"

    def __init__(self, seed: int | None = None, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else make_rng(seed)

    @staticmethod
    def decision_probability(x: float, sigma: float) -> float:
        """``O(x) = G(x) / G(0.5)`` — the acceptance probability (Figure 2).

        ``x`` is the produced/candidate size ratio and ``sigma`` the candidate
        segment size relative to the whole column.  A degenerate ``sigma`` of
        zero only accepts perfectly balanced splits.
        """
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"size ratio x must be within [0, 1], got {x}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        denominator = 2.0 * sigma * sigma
        if denominator == 0.0:
            # A vanishing sigma (an infinitesimally small segment) only ever
            # accepts a perfectly balanced split.
            return 1.0 if x == 0.5 else 0.0
        exponent = ((x - 0.5) ** 2) / denominator
        if exponent > 700.0:  # exp() would underflow to a subnormal / raise
            return 0.0
        return math.exp(-exponent)

    def decide(
        self,
        query: ValueRange,
        segment: SegmentLike,
        *,
        total_bytes: float,
    ) -> SplitDecision:
        points = _clip_points(query, segment.vrange)
        if not points or segment.size_bytes <= 0 or total_bytes <= 0:
            return SplitDecision.no_split()
        produced = query.intersect(segment.vrange)
        x = segment.estimate_bytes(produced) / segment.size_bytes
        x = min(max(x, 0.0), 1.0)
        sigma = segment.size_bytes / total_bytes
        probability = self.decision_probability(x, sigma)
        if float(self._rng.random()) < probability:
            return SplitDecision(SplitAction.SPLIT_AT_BOUNDS, tuple(points))
        return SplitDecision.no_split()


class AdaptivePageModel(SegmentationModel):
    """The deterministic Adaptive Page Model policy (§3.2.2)."""

    name = "APM"

    def __init__(self, m_min: float = 3 * KB, m_max: float = 12 * KB) -> None:
        ensure_positive("m_min", m_min)
        ensure_positive("m_max", m_max)
        if m_min >= m_max:
            raise ValueError(f"m_min must be smaller than m_max, got {m_min} >= {m_max}")
        self.m_min = float(m_min)
        self.m_max = float(m_max)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdaptivePageModel(m_min={self.m_min:g}, m_max={self.m_max:g})"

    # -- rule helpers ------------------------------------------------------

    def _piece_sizes(self, segment: SegmentLike, points: list[float]) -> list[float]:
        """Estimated bytes of each piece a split at ``points`` would produce.

        Equivalent to ``[segment.estimate_bytes(sub) for sub in
        segment.vrange.split_at(points)]`` but computed from the edge list
        directly — no sub-range objects, and bit-identical arithmetic (the
        value width is a power of two, so the scale factor commutes exactly).
        """
        vrange = segment.vrange
        width = vrange.high - vrange.low
        cuts = vrange.interior_points(points)
        if width <= 0.0:
            return [0.0] * (len(cuts) + 1)
        size = segment.size_bytes
        edges = [vrange.low, *cuts, vrange.high]
        return [
            size * ((high - low) / width) for low, high in zip(edges[:-1], edges[1:])
        ]

    def _single_point(self, query: ValueRange, segment: SegmentLike, points: list[float]) -> float:
        """Rule 3: pick one split point among the query bounds or the middle.

        Candidates are ordered as in Algorithm 4 case 4: prefer the query
        bound whose query-side piece is smaller.  A candidate is acceptable if
        both resulting pieces stay above ``Mmin``; otherwise fall back to the
        approximate middle of the segment.
        """
        seg_range = segment.vrange

        def query_side_bytes(point: float) -> float:
            lower = ValueRange(seg_range.low, point)
            upper = ValueRange(point, seg_range.high)
            side = lower if lower.overlaps(query) or query.high <= point else upper
            return segment.estimate_bytes(side)

        ordered = sorted(points, key=query_side_bytes)
        for point in ordered:
            lower, upper = seg_range.split_at([point])
            if (
                segment.estimate_bytes(lower) >= self.m_min
                and segment.estimate_bytes(upper) >= self.m_min
            ):
                return point
        return seg_range.midpoint

    def decide(
        self,
        query: ValueRange,
        segment: SegmentLike,
        *,
        total_bytes: float,
    ) -> SplitDecision:
        points = _clip_points(query, segment.vrange)
        if not points:
            return SplitDecision.no_split()
        # Rule 1: small segments are left intact.
        if segment.size_bytes < self.m_min:
            return SplitDecision.no_split()
        # Rule 2: split at the query bounds when every piece is large enough.
        piece_sizes = self._piece_sizes(segment, points)
        if all(size >= self.m_min for size in piece_sizes):
            return SplitDecision(SplitAction.SPLIT_AT_BOUNDS, tuple(points))
        # Rule 3: pieces would be too small, but the segment itself is large.
        if segment.size_bytes > self.m_max:
            point = self._single_point(query, segment, points)
            if segment.vrange.low < point < segment.vrange.high:
                return SplitDecision(SplitAction.SPLIT_AT_POINT, (point,))
        return SplitDecision.no_split()


def model_from_name(
    name: str,
    *,
    m_min: float = 3 * KB,
    m_max: float = 12 * KB,
    seed: int | None = None,
) -> SegmentationModel:
    """Factory used by the benchmark harness and the examples.

    ``name`` is case-insensitive: ``"gd"`` or ``"apm"``.
    """
    key = name.strip().lower()
    if key in {"gd", "gaussian", "gaussian-dice"}:
        return GaussianDice(seed=seed)
    if key in {"apm", "adaptive-page-model"}:
        return AdaptivePageModel(m_min=m_min, m_max=m_max)
    raise ValueError(f"unknown segmentation model {name!r}")

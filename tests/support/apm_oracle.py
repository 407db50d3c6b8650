"""The Adaptive Page Model's decision as it read before it was inlined.

``AdaptivePageModel.decide`` now computes its clipped points and piece sizes
inline and shares one no-split decision.  This is the earlier, helper-based
form, kept verbatim as the reference the rewrite must equal decision for
decision (``tests/core/test_models.py``).
"""

from __future__ import annotations

from repro.core.models import SegmentLike, SplitAction, SplitDecision
from repro.core.ranges import ValueRange


class ReferenceAdaptivePageModel:
    """Rules 1–3 of §3.2.2 through the original helpers."""

    def __init__(self, m_min: float, m_max: float) -> None:
        self.m_min = float(m_min)
        self.m_max = float(m_max)

    def _piece_sizes(self, segment: SegmentLike, points: list[float]) -> list[float]:
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
        points = segment.vrange.interior_points([query.low, query.high])
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

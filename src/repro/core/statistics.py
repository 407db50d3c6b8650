"""Segment statistics (paper Table 2).

Table 2 of the paper summarises, per workload and segmentation scheme, the
number of segments created, their average size and the size deviation.  This
module computes the same summary for any strategy exposing a ``segments``
list (adaptive segmentation, adaptive replication and the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SegmentStatistics:
    """Count / mean / standard deviation of segment sizes."""

    segment_count: int
    average_bytes: float
    deviation_bytes: float
    total_bytes: float
    materialized_count: int


def segment_statistics(column) -> SegmentStatistics:
    """Summarise the segments of any strategy exposing a ``segments`` list.

    Virtual segments (replication) are excluded from the size statistics but
    reflected in the materialized count vs. segment count difference.
    """
    segments = list(column.segments)
    materialized = [s for s in segments if getattr(s, "materialized", True)]
    sizes = np.array([s.size_bytes for s in materialized], dtype=float)
    if sizes.size == 0:
        return SegmentStatistics(
            segment_count=len(segments),
            average_bytes=0.0,
            deviation_bytes=0.0,
            total_bytes=0.0,
            materialized_count=0,
        )
    return SegmentStatistics(
        segment_count=len(segments),
        average_bytes=float(sizes.mean()),
        deviation_bytes=float(sizes.std()),
        total_bytes=float(sizes.sum()),
        materialized_count=len(materialized),
    )

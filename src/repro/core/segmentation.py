"""Adaptive segmentation (paper §4, Algorithm 1).

A column is represented as a sequence of adjacent, non-overlapping segments
covering the attribute domain.  Initially the whole column is one segment.
Every range selection offers an opportunity to split the segments it overlaps;
whether the opportunity is taken is decided by a segmentation model (GD or
APM).  When a split is taken, the segment is *eagerly* replaced in place by
its two or three sub-segments — the query result is piggy-backed on this
reorganization, and the pieces outside the selection constitute the
reorganization overhead the paper measures as memory writes.

The selection itself is :class:`~repro.core.strategy.AdaptiveColumnBase`'s
read path over the segment list (an :class:`IntervalIndex` whose every leaf
is its own answer); this module is the adaptation rule, :meth:`_adapt`.  A
batch (``select_many``) is read in one pass and then adapted once: each
touched segment sees a single split decision against the envelope of the
members that read it (:meth:`_adapt_wave`).

With the sorted zero-copy segment layout (:mod:`repro.core.segment`), a
split produces slice views over the shared payload and a selection over a
fully-contained segment returns its payload directly; the accountants keep
counting *logical* bytes (``count * value_width``), so the read/write
figures are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import IOAccountant, QueryStats
from repro.core.interval_index import IntervalIndex
from repro.core.models import SegmentationModel
from repro.core.ranges import ValueRange
from repro.core.segment import Segment
from repro.core.strategy import AdaptiveColumnBase, register_strategy


@register_strategy
class SegmentedColumn(AdaptiveColumnBase):
    """A column organised as value-ranged segments that adapt to the workload.

    Only segments overlapping a predicate are read; each of them may be split
    according to the segmentation model.

    Parameters
    ----------
    values:
        The column payload (any numeric numpy array).
    model:
        Segmentation model deciding when to split (GD or APM).
    oids:
        Optional object identifiers; defaults to the positional order.
    domain:
        The attribute domain as a ``(low, high)`` pair (half-open).  Defaults
        to the smallest range containing the data.
    accountant:
        Byte counters; a private one is created when omitted.
    time_phases:
        Measure wall-clock selection/adaptation time per query.
    """

    strategy_name = "segmentation"
    requires_model = True
    display_short = "Segm"

    def __init__(
        self,
        values: np.ndarray,
        *,
        model: SegmentationModel,
        oids: np.ndarray | None = None,
        domain: tuple[float, float] | None = None,
        accountant: IOAccountant | None = None,
        time_phases: bool = True,
    ) -> None:
        super().__init__(values, domain=domain, accountant=accountant, time_phases=time_phases)
        self.model = model
        root = Segment(self.domain, values, oids, value_width=self.value_width)
        root.check_invariants()
        self.index = IntervalIndex([root], [root])

    # -- public API ---------------------------------------------------------

    @property
    def segments(self) -> list[Segment]:
        """The current segments in value order."""
        return list(self.index.answers)

    @property
    def segment_count(self) -> int:
        """Number of segments the column is currently split into."""
        return len(self.index)

    @property
    def storage_bytes(self) -> float:
        """The column's bytes: splits conserve the payload (see :meth:`check_invariants`)."""
        return self.total_bytes

    # -- the adaptation rules -------------------------------------------------

    def _adapt(self, query: ValueRange, segment: Segment, stats: QueryStats) -> None:
        """Algorithm 1: replace ``segment`` by its pieces where the model cuts it."""
        decision = self.model.decide(query, segment, total_bytes=self.total_bytes)
        if not decision.should_split:
            return
        pieces = segment.partition(list(decision.points))
        if len(pieces) <= 1:
            return
        for piece in pieces:
            self.accountant.record_write(piece.size_bytes)
        start, stop = self.index.span(segment.vrange)
        self.index.splice(start, stop, pieces, pieces)
        stats.splits_performed += 1

    def _adapt_wave(self, lows: list[float], highs: list[float], covers: list[list[Segment]],
                    touched: list[tuple[Segment, list[int]]], stats: QueryStats) -> None:
        """One split decision per touched segment, against its members' envelope.

        The envelope is the smallest range containing the members that read
        the segment.  Adapting member by member instead (the base rule) cut
        ``server_pipelined`` write bytes 970 -> 553 per query but raised its
        read bytes 11 779 -> 15 234 (+29 %): the wave's small pieces are read
        again by the members that follow.
        """
        for segment, members in touched:
            envelope = ValueRange(min(lows[q] for q in members), max(highs[q] for q in members))
            self._adapt(envelope, segment, stats)

    def check_invariants(self) -> None:
        """Verify that the segments partition the domain and conserve the data."""
        self.index.check_invariants()
        segments = self.index.answers
        if not segments:
            raise AssertionError("a segmented column must always have at least one segment")
        if segments[0].vrange.low != self.domain.low or segments[-1].vrange.high != self.domain.high:
            raise AssertionError("segments do not cover the attribute domain")
        for segment, low, high in zip(segments, self.index.lows, self.index.highs):
            if (segment.vrange.low, segment.vrange.high) != (low, high):
                raise AssertionError(
                    f"segment {segment.vrange} is not its own leaf [{low:g}, {high:g})"
                )
            segment.check_invariants()
        total_values = sum(int(segment.count) for segment in segments)
        expected = int(round(self.total_bytes / self.value_width))
        if total_values != expected:
            raise AssertionError(
                f"segments hold {total_values} values, expected {expected}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentedColumn(segments={self.segment_count}, "
            f"model={self.model.name}, bytes={self.total_bytes:g})"
        )

"""Adaptive segmentation (paper §4, Algorithm 1).

A column is represented as a sequence of adjacent, non-overlapping segments
covering the attribute domain.  Initially the whole column is one segment.
Every range selection offers an opportunity to split the segments it overlaps;
whether the opportunity is taken is decided by a segmentation model (GD or
APM).  When a split is taken, the segment is *eagerly* replaced in place by
its two or three sub-segments — the query result is piggy-backed on this
reorganization, and the pieces outside the selection constitute the
reorganization overhead the paper measures as memory writes.

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
from repro.core.segment import SelectionResult, Segment
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
        """Bytes used for the column payload (constant for segmentation).

        Splits conserve the payload exactly (verified by
        :meth:`check_invariants`), so this is ``total_bytes`` — computed in
        O(1) instead of summing over every segment on the query hot path.
        """
        return self.total_bytes

    # -- the frame's hooks ----------------------------------------------------

    def _execute(self, query: ValueRange, stats: QueryStats) -> SelectionResult:
        now, decide, record_read = self._now, self.model.decide, self.accountant.record_read
        parts: list[SelectionResult] = []
        for segment in self.index.cover(query):
            # Logical read bytes are accounted whether or not data is touched.
            record_read(segment.size_bytes)

            # Three clock reads: selection ends where adaptation starts.
            started = now()
            parts.append(segment.select(query))
            selected = now()
            stats.selection_seconds += selected - started

            decision = decide(query, segment, total_bytes=self.total_bytes)
            if decision.should_split:
                self._split(segment, list(decision.points), stats)
            stats.adaptation_seconds += now() - selected
        if len(parts) == 1:
            return parts[0]  # one covering segment's slice: nothing to concatenate
        started = now()
        result = SelectionResult.concatenate(parts, self.dtype)
        stats.selection_seconds += now() - started
        return result

    def _execute_batch(
        self, lows: np.ndarray, highs: np.ndarray, stats: QueryStats
    ) -> list[SelectionResult]:
        """The vectorized batch kernel.

        The whole batch is routed against the segment bounds in one
        ``np.searchsorted`` pass (:meth:`IntervalIndex.route_many`) and
        every touched segment answers all of its member queries with one
        probe batch (:meth:`Segment.bounds_many`) — O(touched segments) numpy
        calls for the entire batch, never O(N).  Each touched segment is read
        once for the whole batch and sees a single split decision
        (:meth:`_adapt_envelopes`).
        """
        started = self._now()
        routed = self._route(lows, highs)
        n = int(lows.size)
        low_list = lows.tolist()
        high_list = highs.tolist()
        # Per-query (values, oids) slice pairs; raw tuples until assembly so
        # the hot loop builds no intermediate SelectionResults.
        parts: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n)]
        for segment, queries, _ in routed:
            # One read answers every member query that overlaps this segment
            # — this is the batch's amortization of the shared scan.
            self.accountant.record_read(segment.size_bytes)
            seg_low, seg_high = segment.vrange.low, segment.vrange.high
            seg_values, seg_oids = segment.values, segment.oids
            partial: list[int] = []
            for q in queries:
                if low_list[q] <= seg_low and high_list[q] >= seg_high:
                    # The whole (sorted) payload answers a fully-contained
                    # member, as in Segment.select.
                    parts[q].append((seg_values, seg_oids))
                else:
                    partial.append(q)
            if partial:
                los, his = segment.bounds_many(lows[partial], highs[partial])
                for q, lo, hi in zip(partial, los.tolist(), his.tolist()):
                    parts[q].append((seg_values[lo:hi], seg_oids[lo:hi]))
        stats.selection_seconds += self._now() - started

        # Adaptation is deferred so every member reads pre-split payloads
        # (the returned views stay valid across splits regardless — splits
        # are slices over the same base array).
        self._adapt_envelopes(routed, stats)

        started = self._now()
        # Per-query parts were appended in ascending segment order over
        # disjoint sorted payloads, so a multi-part result is in ascending
        # value order.
        results: list[SelectionResult] = []
        for q in range(n):
            q_parts = parts[q]
            if not q_parts:
                results.append(SelectionResult.empty(self.dtype))
            elif len(q_parts) == 1:
                values, oids = q_parts[0]
                results.append(SelectionResult(values, oids))
            else:
                results.append(
                    SelectionResult(
                        np.concatenate([values for values, _ in q_parts]),
                        np.concatenate([oids for _, oids in q_parts]),
                    )
                )
        stats.selection_seconds += self._now() - started
        return results

    def _route(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> list[tuple[Segment, list[int], ValueRange]]:
        """Each touched segment, in value order, with its members and their envelope.

        ``(segment, positions of the member ranges overlapping it, the
        smallest range containing those members)``.  The list is complete
        before anything splits, because splitting shifts index positions.
        """
        starts, stops = self.index.route_many(lows, highs)
        touched: dict[int, list[int]] = {}
        for q, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
            for s in range(start, stop):
                touched.setdefault(s, []).append(q)
        low_list = lows.tolist()
        high_list = highs.tolist()
        return [
            (
                self.index.answers[s],
                queries,
                ValueRange(
                    min(low_list[q] for q in queries),
                    max(high_list[q] for q in queries),
                ),
            )
            for s, queries in sorted(touched.items())
        ]

    def _adapt_envelopes(
        self, routed: list[tuple[Segment, list[int], ValueRange]], stats: QueryStats
    ) -> None:
        """The one deferred-adaptation pass of a batch.

        Each touched segment sees a single split decision against the
        envelope of the member ranges that overlap it.
        """
        started = self._now()
        for segment, _, envelope in routed:
            decision = self.model.decide(envelope, segment, total_bytes=self.total_bytes)
            if decision.should_split:
                self._split(segment, list(decision.points), stats)
        stats.adaptation_seconds += self._now() - started

    def _split(self, segment: Segment, points: list[float], stats: QueryStats) -> None:
        pieces = segment.partition(points)
        if len(pieces) <= 1:
            return
        for piece in pieces:
            self.accountant.record_write(piece.size_bytes)
        start, stop = self.index.span(segment.vrange)
        self.index.splice(start, stop, pieces, pieces)
        stats.splits_performed += 1

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

"""The interval index: which stored pieces cover a range.

The paper's segment optimizer answers every predicate from an in-memory
catalogue of piece ranges, without touching data (§3.1), and Algorithm 3
asks the same question of the replica tree (§5).  Both organisations keep one
:class:`IntervalIndex` for it: a value-ordered, gap-free list of *leaf*
intervals, each carrying one *answer* — the stored piece a query over that
leaf reads.

* Adaptive segmentation: every segment is a leaf and its own answer.
* Adaptive replication: the leaves are the replica tree's leaves and each
  answer is the leaf's deepest materialized ancestor-or-self
  (:class:`~repro.core.replica_tree.ReplicaNode`).

An answer exposes ``vrange``, ``size_bytes`` and ``segment`` — the immutable
:class:`~repro.core.segment.Segment` holding its data (a segment is its own).
The answers form a laminar family (any two ranges are nested or disjoint),
so :meth:`IntervalIndex.cover` is two binary searches and one pass: walk the
answers of the overlapped leaves in value order, fold consecutive
duplicates, keep the maximal ones.  For segmentation the pass is the
identity; for replication it is exactly Algorithm 3's minimal cover.

Publication: the two doors that change the index — :meth:`~IntervalIndex.splice`
and :meth:`~IntervalIndex.repoint` — only mark it dirty.  :meth:`~IntervalIndex.pin`,
called on the owning thread, captures an :class:`IndexSnapshot` (bound
tuples plus answer segments, with a monotone generation) when the index
changed since the last pin and otherwise hands out the one it has, so a
query nobody reads behind captures nothing.  Segments are never mutated once
built, so a snapshot keeps answering its layout however the live one moves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Sequence

import numpy as np

from repro.core.ranges import ValueRange
from repro.core.segment import Segment


def _cover(lows: Sequence[float], highs: Sequence[float], answers: Sequence, query: ValueRange) -> list:
    """The maximal answers of the leaves overlapping ``query``, in value order."""
    if query.is_empty:
        return []
    start = bisect_right(highs, query.low)
    stop = bisect_left(lows, query.high, start)
    cover: list = []
    for answer in answers[start:stop]:
        vrange = answer.vrange
        if cover:
            top = cover[-1].vrange
            if top.low <= vrange.low and vrange.high <= top.high:
                continue  # a consecutive duplicate, or nested in the piece before it
            while vrange.low <= top.low and top.high <= vrange.high:
                cover.pop()  # the pieces before were nested in this one
                if not cover:
                    break
                top = cover[-1].vrange
        cover.append(answer)
    return cover


class IndexSnapshot:
    """An immutable point-in-time view of an :class:`IntervalIndex`.

    Holds the leaf bounds and each leaf's answer *segment*; captured only by
    :meth:`IntervalIndex.pin`.  Readers on any thread call :meth:`cover` and
    ``Segment.select`` on what it returns.
    """

    __slots__ = ("lows", "highs", "answers", "generation", "__weakref__")

    def __init__(
        self,
        lows: tuple[float, ...],
        highs: tuple[float, ...],
        answers: tuple[Segment, ...],
        generation: int,
    ) -> None:
        self.lows = lows
        self.highs = highs
        self.answers = answers
        self.generation = generation

    def cover(self, query: ValueRange) -> list[Segment]:
        """The segments covering ``query``, in value order."""
        return _cover(self.lows, self.highs, self.answers, query)


class IntervalIndex:
    """Leaf intervals with one answer each, maintained by their owner's doors.

    ``lows`` / ``highs`` / ``answers`` are the owner-side lists (value order;
    read them, never mutate them).  Single writer: the owning thread.
    """

    def __init__(self, leaves: Sequence[Any], answers: Sequence[Any]) -> None:
        self.lows: list[float] = []
        self.highs: list[float] = []
        self.answers: list = []
        self._bound_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._generation = 0
        self._snapshot: IndexSnapshot | None = None
        self.splice(0, 0, leaves, answers)

    def __len__(self) -> int:
        return len(self.answers)

    # -- lookups ----------------------------------------------------------------

    def span(self, vrange: ValueRange) -> tuple[int, int]:
        """Positions ``[start, stop)`` of the leaves overlapping ``vrange``."""
        start = bisect_right(self.highs, vrange.low)
        return start, bisect_left(self.lows, vrange.high, start)

    def cover(self, query: ValueRange) -> list:
        """The answers covering ``query`` (Algorithm 3's minimal cover), in value order."""
        return _cover(self.lows, self.highs, self.answers, query)

    def footprint(self, query: ValueRange) -> float:
        """Bytes a query over ``query`` reads: the sum of its cover's sizes."""
        return sum(answer.size_bytes for answer in self.cover(query))

    def route_many(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leaf spans ``[start_i, stop_i)`` for N half-open ranges at once.

        Two ``np.searchsorted`` passes over the leaf bounds classify the whole
        batch; empty ranges (``low >= high``) yield empty spans.
        """
        if self._bound_arrays is None:
            self._bound_arrays = (
                np.asarray(self.lows, dtype=np.float64),
                np.asarray(self.highs, dtype=np.float64),
            )
        leaf_lows, leaf_highs = self._bound_arrays
        # Leaves are ordered and gap-free, so their highs are sorted too: the
        # overlap span is [first high > low, first low >= high).
        starts = np.searchsorted(leaf_highs, lows, side="right")
        stops = np.searchsorted(leaf_lows, highs, side="left")
        stops = np.where((np.asarray(lows) >= np.asarray(highs)) | (stops < starts), starts, stops)
        return starts, stops

    # -- the two doors ------------------------------------------------------------

    def splice(self, start: int, stop: int, leaves: Sequence[Any], answers: Sequence[Any]) -> None:
        """Replace the leaves ``[start, stop)`` by ``leaves`` (value order), answered by ``answers``."""
        self.lows[start:stop] = [leaf.vrange.low for leaf in leaves]
        self.highs[start:stop] = [leaf.vrange.high for leaf in leaves]
        self.answers[start:stop] = answers
        self._bound_arrays = None
        self._snapshot = None

    def repoint(self, vrange: ValueRange, answer: Any) -> None:
        """Leaves inside ``vrange`` whose answer spans all of it get ``answer``.

        The answers being laminar, those are the leaves answered by the piece
        of ``vrange`` itself or by one enclosing it; a leaf answered by a
        piece nested inside ``vrange`` keeps its answer.
        """
        answers = self.answers
        low, high = vrange.low, vrange.high
        start = bisect_right(self.highs, low)
        for position in range(start, bisect_left(self.lows, high, start)):
            spanned = answers[position].vrange
            if spanned.low <= low and high <= spanned.high:
                answers[position] = answer
        self._snapshot = None

    # -- publication ----------------------------------------------------------------

    def pin(self) -> IndexSnapshot:
        """The snapshot of the index as it is now; captured only if it changed.

        Owning thread only: the capture reads the owner-side lists.
        """
        snapshot = self._snapshot
        if snapshot is None:
            self._generation += 1
            snapshot = self._snapshot = IndexSnapshot(
                tuple(self.lows),
                tuple(self.highs),
                tuple(answer.segment for answer in self.answers),
                self._generation,
            )
        return snapshot

    # -- integrity --------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Leaves ordered, non-empty and gap-free; every answer covers its leaf;
        a snapshot still held as current equals the index."""
        lows, highs, answers = self.lows, self.highs, self.answers
        if not len(lows) == len(highs) == len(answers):
            raise AssertionError("interval index bound lists disagree on length")
        for position, answer in enumerate(answers):
            low, high = lows[position], highs[position]
            if not low < high:
                raise AssertionError(f"leaf {position} [{low:g}, {high:g}) is empty or reversed")
            if position and low != highs[position - 1]:
                raise AssertionError(f"gap or overlap before leaf {position} at {low:g}")
            if not (answer.vrange.low <= low and high <= answer.vrange.high):
                raise AssertionError(f"answer {answer.vrange} does not cover leaf [{low:g}, {high:g})")
        snapshot = self._snapshot
        if snapshot is not None and (
            snapshot.generation != self._generation
            or snapshot.lows != tuple(lows)
            or snapshot.highs != tuple(highs)
            or any(got is not answer.segment for got, answer in zip(snapshot.answers, answers))
        ):
            raise AssertionError("the current snapshot is stale: the index changed without a new pin")

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
identity; for replication it is exactly Algorithm 3's minimal cover.  Two
doors change the index: :meth:`~IntervalIndex.splice` and
:meth:`~IntervalIndex.repoint`.  Each bumps :attr:`IntervalIndex.generation`,
so a cover computed earlier is still the cover while the generation is
unchanged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Sequence

from repro.core.ranges import ValueRange


class IntervalIndex:
    """Leaf intervals with one answer each, maintained by their owner's doors.

    ``lows`` / ``highs`` / ``answers`` are the owner-side lists (value order;
    read them, never mutate them).  Single writer: the owning thread.
    ``generation`` counts the calls to the two doors.
    """

    def __init__(self, leaves: Sequence[Any], answers: Sequence[Any]) -> None:
        self.generation = 0
        self.lows: list[float] = []
        self.highs: list[float] = []
        self.answers: list = []
        self.splice(0, 0, leaves, answers)

    def __len__(self) -> int:
        return len(self.answers)

    # -- lookups ----------------------------------------------------------------

    def span(self, vrange: ValueRange) -> tuple[int, int]:
        """Positions ``[start, stop)`` of the leaves overlapping ``vrange``."""
        start = bisect_right(self.highs, vrange.low)
        return start, bisect_left(self.lows, vrange.high, start)

    def cover(self, low: float, high: float) -> list:
        """The answers covering ``[low, high)`` (Algorithm 3's minimal cover), in value order."""
        if high <= low:
            return []
        start = bisect_right(self.highs, low)
        stop = bisect_left(self.lows, high, start)
        cover: list = []
        for answer in self.answers[start:stop]:
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

    def footprint(self, query: ValueRange) -> float:
        """Bytes a query over ``query`` reads: the sum of its cover's sizes."""
        return sum(answer.size_bytes for answer in self.cover(query.low, query.high))

    # -- the two doors ------------------------------------------------------------

    def splice(self, start: int, stop: int, leaves: Sequence[Any], answers: Sequence[Any]) -> None:
        """Replace the leaves ``[start, stop)`` by ``leaves`` (value order), answered by ``answers``."""
        self.lows[start:stop] = [leaf.vrange.low for leaf in leaves]
        self.highs[start:stop] = [leaf.vrange.high for leaf in leaves]
        self.answers[start:stop] = answers
        self.generation += 1

    def repoint(self, vrange: ValueRange, answer: Any) -> None:
        """Leaves inside ``vrange`` whose answer spans all of it get ``answer``.

        The answers being laminar, those are the leaves answered by the piece
        of ``vrange`` itself or by one enclosing it; a leaf answered by a
        piece nested inside ``vrange`` keeps its answer.
        """
        self.generation += 1
        answers = self.answers
        low, high = vrange.low, vrange.high
        start = bisect_right(self.highs, low)
        for position in range(start, bisect_left(self.lows, high, start)):
            spanned = answers[position].vrange
            if spanned.low <= low and high <= spanned.high:
                answers[position] = answer

    # -- integrity --------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Leaves ordered, non-empty and gap-free; every answer covers its leaf."""
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

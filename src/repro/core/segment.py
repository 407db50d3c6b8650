"""Segments: the unit of value-based column organisation.

A segment owns the ``(oid, value)`` pairs of a column whose values fall into a
contiguous range of the attribute domain.  Segments back both self-organizing
techniques: adaptive segmentation keeps an ordered, non-overlapping list of
them, while adaptive replication arranges (possibly virtual) segments into a
replica tree.

Physical layout (sorted, zero-copy)
-----------------------------------

A materialized segment keeps its payload **sorted by value**, with the oids
co-sorted so that ``(oids[i], values[i])`` pairs are preserved.  This is the
physical realisation of the paper's observation that a BAT "conveniently
splits at any point" (§2): with a value-ordered payload,

* :meth:`Segment.select` is two ``np.searchsorted`` probes returning array
  *views* (no mask, no copy),
* :meth:`Segment.partition` and :meth:`Segment.extract` are O(log n) slice
  operations over the shared base array — splitting a segment copies **no**
  payload bytes,
* a range fully containing the segment is answered without touching the data
  at all (the whole payload is the answer).

Zero-copy invariants
~~~~~~~~~~~~~~~~~~~~

Arrays returned by ``select`` and held by sub-segments produced by
``partition``/``extract`` are *views* into a shared base array.  Callers may
read them freely but must **never mutate** them: a write through a view
would corrupt every segment sharing the base.  Callers that need a private
mutable copy must ``np.copy`` the result themselves.

Byte accounting is unaffected: the accountants count *logical* bytes moved
(``count * value_width``), not physical copies, so the simulation's
read/write figures are identical to the pre-zero-copy implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ranges import ValueRange
from repro.util.sorted_search import sorted_probe, sorted_probe_many


def is_value_sorted(values: np.ndarray) -> bool:
    """True when ``values`` is non-decreasing (the segment payload order)."""
    if values.size < 2:
        return True
    return bool(np.all(values[:-1] <= values[1:]))


@dataclass
class SelectionResult:
    """Qualifying values (and their oids) returned by a range selection.

    Segment-backed strategies return ``values`` sorted ascending (the
    payload order); the positional baseline returns load order.  Both
    arrays may be zero-copy views into live column storage — treat them as
    read-only.
    """

    values: np.ndarray
    oids: np.ndarray

    @property
    def count(self) -> int:
        """Number of qualifying values."""
        return int(self.values.size)

    @classmethod
    def empty(cls, dtype: np.dtype) -> "SelectionResult":
        """An empty result of the given value dtype."""
        return cls(np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64))

    @classmethod
    def concatenate(cls, parts: list["SelectionResult"], dtype: np.dtype) -> "SelectionResult":
        """Concatenate partial results (order follows the parts).

        A single non-empty part is returned unwrapped — the common
        fully-contained-segment case stays zero-copy end to end.
        """
        parts = [p for p in parts if p.count > 0]
        if not parts:
            return cls.empty(dtype)
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([p.values for p in parts]),
            np.concatenate([p.oids for p in parts]),
        )

    @classmethod
    def from_slices(
        cls, parts: list[tuple[np.ndarray, np.ndarray]], dtype: np.dtype
    ) -> "SelectionResult":
        """One batch member's ``(values, oids)`` slices, in value order, as a result.

        A single slice is returned unwrapped (zero-copy), as in
        :meth:`concatenate`.
        """
        if not parts:
            return cls.empty(dtype)
        if len(parts) == 1:
            values, oids = parts[0]
            return cls(values, oids)
        return cls(
            np.concatenate([values for values, _ in parts]),
            np.concatenate([oids for _, oids in parts]),
        )


def slice_bounds(values: np.ndarray, vrange: ValueRange, query: ValueRange) -> tuple[int, int]:
    """Positional slice ``[lo, hi)`` of the sorted ``values`` falling into ``query``.

    ``vrange`` is the range the payload covers: the fully-contained case is
    answered from it alone, otherwise two ``side="left"`` binary searches
    probe the data.
    """
    if query.low <= vrange.low and query.high >= vrange.high:
        return 0, int(values.size)
    return (
        sorted_probe(values, query.low, side="left"),
        sorted_probe(values, query.high, side="left"),
    )


class Segment:
    """A contiguous value-range piece of a column.

    A segment is never mutated once built: a split, a replica materialization
    or a release builds a new one, so a reference to one never goes stale.

    Parameters
    ----------
    vrange:
        Half-open value range covered by the segment.
    values, oids:
        The segment payload.  ``None`` for *virtual* segments (used by
        adaptive replication), which describe a range and an estimated size
        but hold no data.  Unsorted payloads are sorted by value at
        construction (oids are co-sorted so pairs are preserved).
    value_width:
        Bytes per value, used for all byte accounting.  Derived from the
        dtype when data is present.
    estimated_count:
        Size estimate for virtual segments.
    assume_sorted:
        Internal fast path: the caller guarantees ``values`` is already
        sorted (slices of a sorted parent).  Skips the sortedness check so
        splits stay O(log n).
    """

    __slots__ = ("vrange", "values", "oids", "value_width", "estimated_count")

    def __init__(
        self,
        vrange: ValueRange,
        values: np.ndarray | None = None,
        oids: np.ndarray | None = None,
        *,
        value_width: int | None = None,
        estimated_count: float | None = None,
        assume_sorted: bool = False,
    ) -> None:
        self.vrange = vrange
        if values is not None:
            values = np.asarray(values)
            if oids is None:
                oids = np.arange(values.size, dtype=np.int64)
            else:
                oids = np.asarray(oids, dtype=np.int64)
            if oids.size != values.size:
                raise ValueError(
                    f"values and oids must have equal length, got {values.size} and {oids.size}"
                )
            if not assume_sorted and not is_value_sorted(values):
                order = np.argsort(values, kind="stable")
                values = values[order]
                oids = oids[order]
            if value_width is None:
                value_width = int(values.dtype.itemsize)
        elif value_width is None:
            raise ValueError("virtual segments must specify value_width explicitly")
        self.values = values
        self.oids = oids
        self.value_width = int(value_width)
        self.estimated_count = float(
            estimated_count if estimated_count is not None else (0 if values is None else values.size)
        )

    # -- basic properties ------------------------------------------------

    @property
    def materialized(self) -> bool:
        """True when the segment holds actual data."""
        return self.values is not None

    @property
    def segment(self) -> "Segment":
        """The segment an interval-index answer reads from: itself."""
        return self

    @property
    def count(self) -> float:
        """Number of values held (materialized) or estimated (virtual)."""
        if self.values is not None:
            return float(self.values.size)
        return self.estimated_count

    @property
    def size_bytes(self) -> float:
        """Payload size in bytes (estimate for virtual segments)."""
        return self.count * self.value_width

    # -- size estimation --------------------------------------------------

    def estimate_count(self, sub: ValueRange) -> float:
        """Estimated number of values in ``sub`` assuming a uniform spread.

        The segmentation models make their decisions from estimates so that
        no data needs to be touched at optimization time (paper §3.1).
        """
        return self.count * sub.fraction_of(self.vrange)

    def estimate_bytes(self, sub: ValueRange) -> float:
        """Estimated payload bytes of the portion of this segment in ``sub``."""
        return self.estimate_count(sub) * self.value_width

    # -- data operations --------------------------------------------------

    def _require_data(self) -> None:
        if self.values is None:
            raise RuntimeError(f"segment {self.vrange} is virtual and holds no data")

    def bounds(self, vrange: ValueRange) -> tuple[int, int]:
        """Positional slice ``[lo, hi)`` of the values falling into ``vrange``.

        Two binary searches over the sorted payload; the fully-contained case
        is answered from the range metadata alone without probing the data.
        """
        self._require_data()
        return slice_bounds(self.values, self.vrange, vrange)

    def select(self, vrange: ValueRange) -> SelectionResult:
        """Extract the values (and oids) falling into ``vrange``.

        Returns zero-copy views into the segment payload (read-only by
        contract — see the module docstring).
        """
        self._require_data()
        values, oids = self.values, self.oids
        lo, hi = slice_bounds(values, self.vrange, vrange)
        if lo == 0 and hi == values.size:
            return SelectionResult(values, oids)
        return SelectionResult(values[lo:hi], oids[lo:hi])

    def bounds_many(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positional slices ``[lo_i, hi_i)`` for N half-open ranges at once.

        Two ``np.searchsorted`` calls answer the whole batch — the vectorized
        counterpart of :meth:`bounds`, with identical per-range semantics
        (``side="left"`` probes over the sorted payload).
        """
        self._require_data()
        return (
            sorted_probe_many(self.values, lows, side="left"),
            sorted_probe_many(self.values, highs, side="left"),
        )

    def extract(self, vrange: ValueRange) -> "Segment":
        """A new materialized segment holding this segment's data in ``vrange``.

        The new segment shares the base array (slice views, no payload copy).
        """
        lo, hi = self.bounds(vrange)
        return Segment(
            vrange,
            self.values[lo:hi],
            self.oids[lo:hi],
            value_width=self.value_width,
            assume_sorted=True,
        )

    def partition(self, points: list[float]) -> list["Segment"]:
        """Split into adjacent materialized sub-segments at the given points.

        Points outside the segment range are ignored.  The sub-segments
        together hold exactly the same multiset of ``(oid, value)`` pairs,
        as O(log n) slices over the shared base array (no payload copies).
        """
        self._require_data()
        sub_ranges = self.vrange.split_at(points)
        if len(sub_ranges) == 1:
            return [self]
        edges = [
            0,
            *(sorted_probe(self.values, r.high, side="left") for r in sub_ranges[:-1]),
            int(self.values.size),
        ]
        return [
            Segment(
                sub,
                self.values[start:stop],
                self.oids[start:stop],
                value_width=self.value_width,
                assume_sorted=True,
            )
            for sub, start, stop in zip(sub_ranges, edges[:-1], edges[1:])
        ]

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` when the payload violates the layout.

        Checks both the range invariant (every value inside ``vrange``) and
        the physical sortedness the zero-copy kernels rely on.
        """
        if self.values is None:
            return
        if self.values.size == 0:
            return
        if not bool(np.all((self.values >= self.vrange.low) & (self.values < self.vrange.high))):
            raise AssertionError(f"segment {self.vrange} holds values outside its range")
        if not is_value_sorted(self.values):
            raise AssertionError(f"segment {self.vrange} payload is not value-sorted")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "mat" if self.materialized else "vir"
        return f"Segment({self.vrange}, {kind}, count={self.count:g})"

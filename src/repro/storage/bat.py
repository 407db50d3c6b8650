"""Binary Association Tables (BATs), MonetDB's storage primitive.

A BAT is a two-column structure of ``(head, tail)`` pairs.  In MonetDB the
head is almost always a dense sequence of object identifiers (a *void* head),
in which case only the tail is physically stored; the elements live in one
contiguous array with "no holes, deleted elements, or auxiliary data", which
is what makes a BAT "conveniently split at any point" (§2).  This module
provides the numpy-backed equivalent used by the MAL operators and, through
the BPM, by the adaptive strategies.

BATs whose tail is known to be value-sorted (the pieces the BPM hands to
rewritten plans come from sorted segments) carry a ``tail_sorted`` flag; the
selection operators then answer range predicates with two binary searches
and a slice *view* (:meth:`BAT.value_slice`) instead of comparing every
tail value.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.util.sorted_search import sorted_probe


class BAT:
    """A binary association table with an optional void (dense) head.

    Parameters
    ----------
    tail:
        The tail values (any one-dimensional numpy array).
    head:
        Explicit head values (oids).  ``None`` means a void head starting at
        ``hseqbase`` — the common, memory-free representation.
    hseqbase:
        First oid of a void head.
    name:
        Optional diagnostic name (e.g. ``"sys_P_ra"``).
    tail_sorted:
        The caller guarantees the tail is non-decreasing.  Selection
        operators then use binary-search slicing (zero-copy) instead of
        boolean masks.  The flag is a promise, not verified here.

    Two slots are set by the storage layer only.  ``merged`` is set on a
    column's persistent and insert-delta BATs: the pre-built void-headed view
    over both (one tail buffer holds them), which is what ``kunion`` of the
    two returns and what ``projection`` over the persistent BAT gathers from.
    ``alive`` is set on the deletion BAT: the table's tombstone bitmap
    (``alive[oid]`` is false for a deleted oid), frozen for as long as this
    BAT is referenced, which is what ``kdifference`` against it gathers.
    :meth:`reverse` carries it, since head and tail hold the same oids.
    """

    __slots__ = (
        "_head", "tail", "hseqbase", "name", "tail_sorted", "merged", "alive"
    )

    def __init__(
        self,
        tail: np.ndarray,
        head: np.ndarray | None = None,
        *,
        hseqbase: int = 0,
        name: str = "",
        tail_sorted: bool = False,
    ) -> None:
        tail = np.asarray(tail)
        if tail.ndim != 1:
            raise ValueError("a BAT tail must be a one-dimensional array")
        if head is not None:
            head = np.asarray(head, dtype=np.int64)
            if head.ndim != 1:
                raise ValueError("a BAT head must be a one-dimensional array")
            if head.size != tail.size:
                raise ValueError(
                    f"head and tail must have equal length, got {head.size} and {tail.size}"
                )
        self._head = head
        self.tail = tail
        self.hseqbase = int(hseqbase)
        self.name = name
        self.tail_sorted = bool(tail_sorted)
        self.merged: BAT | None = None
        self.alive: np.ndarray | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, dtype: Any = np.int64, *, name: str = "") -> "BAT":
        """An empty BAT with a void head (used for empty delta BATs)."""
        return cls(np.empty(0, dtype=dtype), name=name, tail_sorted=True)

    @classmethod
    def from_pairs(
        cls, head: np.ndarray, tail: np.ndarray, *, name: str = "", tail_sorted: bool = False
    ) -> "BAT":
        """A BAT with explicit head oids."""
        return cls(
            np.asarray(tail), np.asarray(head, dtype=np.int64), name=name, tail_sorted=tail_sorted
        )

    # -- properties --------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of (head, tail) pairs."""
        return int(self.tail.size)

    def __len__(self) -> int:
        return self.count

    @property
    def is_void_head(self) -> bool:
        """True when the head is a dense oid sequence (not materialized)."""
        return self._head is None

    @property
    def head(self) -> np.ndarray:
        """The head oids (materialized on demand for void heads)."""
        if self._head is None:
            return np.arange(self.hseqbase, self.hseqbase + self.count, dtype=np.int64)
        return self._head

    @property
    def tail_bytes(self) -> int:
        """Bytes of contiguous tail storage."""
        return int(self.tail.size * self.tail.dtype.itemsize)

    @property
    def size_bytes(self) -> int:
        """Total storage of the BAT (tail plus a materialized head, if any)."""
        head_bytes = 0 if self._head is None else int(self._head.size * self._head.dtype.itemsize)
        return self.tail_bytes + head_bytes

    # -- basic operations -----------------------------------------------------

    def reverse(self) -> "BAT":
        """Swap head and tail (MAL ``bat.reverse``).

        The tail of the reversed BAT holds the former head oids; the former
        tail becomes the (explicit) head.  The operation is used by the Fig-1
        plan to turn a deletion BAT into an oid lookup structure (its
        tombstone bitmap travels along).
        """
        # A void head is sorted, and becomes a sorted tail.
        flipped = BAT(
            self.head, np.asarray(self.tail, dtype=np.int64), name=self.name,
            tail_sorted=self.is_void_head,
        )
        flipped.alive = self.alive
        return flipped

    def slice(self, start: int, stop: int) -> "BAT":
        """Positional slice ``[start, stop)`` preserving head oids (a view).

        A slice covering the whole BAT returns ``self`` — BATs are never
        mutated by operators, and the full-cover case is the steady state of
        the segment-aware plans (the piece handed out by the BPM iterator is
        exactly the query range).
        """
        start = max(0, int(start))
        stop = min(self.count, int(stop))
        if start == 0 and stop == self.count:
            return self
        if self._head is None:
            return BAT(
                self.tail[start:stop], hseqbase=self.hseqbase + start, name=self.name,
                tail_sorted=self.tail_sorted,
            )
        return BAT(
            self.tail[start:stop], self._head[start:stop], name=self.name,
            tail_sorted=self.tail_sorted,
        )

    def value_slice(
        self, low: float, high: float, *, include_low: bool = True, include_high: bool = False
    ) -> "BAT":
        """The pairs whose tail value falls into the given range, as a view.

        Only valid on a sorted tail (``tail_sorted``): two ``searchsorted``
        probes find the qualifying run and :meth:`slice` returns it without
        touching (or copying) the payload.
        """
        if not self.tail_sorted:
            raise ValueError("value_slice requires a sorted tail (tail_sorted=True)")
        lo = sorted_probe(self.tail, low, side="left" if include_low else "right")
        hi = sorted_probe(self.tail, high, side="right" if include_high else "left")
        return self.slice(lo, max(lo, hi))

    def take_oids(self, oids: np.ndarray) -> "BAT":
        """Select the pairs whose head oid appears in ``oids`` (order of ``oids``)."""
        oids = np.asarray(oids, dtype=np.int64)
        if self._head is None:
            positions = oids - self.hseqbase
            valid = (positions >= 0) & (positions < self.count)
            positions = positions[valid]
            return BAT(self.tail[positions], oids[valid], name=self.name)
        order = np.argsort(self._head, kind="stable")
        sorted_head = self._head[order]
        positions = np.searchsorted(sorted_head, oids)
        positions = np.clip(positions, 0, sorted_head.size - 1)
        valid = sorted_head[positions] == oids
        chosen = order[positions[valid]]
        return BAT(self.tail[chosen], oids[valid], name=self.name)

    def copy(self) -> "BAT":
        """A deep copy of the BAT."""
        return BAT(
            self.tail.copy(),
            None if self._head is None else self._head.copy(),
            hseqbase=self.hseqbase,
            name=self.name,
            tail_sorted=self.tail_sorted,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head_kind = "void" if self.is_void_head else "oid"
        return f"BAT(name={self.name!r}, count={self.count}, head={head_kind}, dtype={self.tail.dtype})"

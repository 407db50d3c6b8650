"""Binary Association Tables (BATs), MonetDB's storage primitive.

A BAT is a two-column structure of ``(head, tail)`` pairs.  In MonetDB the
head is almost always a dense sequence of object identifiers (a *void* head),
in which case only the tail is physically stored; the elements live in one
contiguous array with "no holes, deleted elements, or auxiliary data", which
is what makes a BAT "conveniently split at any point" (§2).  This module
provides the numpy-backed equivalent used by the MAL operators and, through
the BPM, by the adaptive strategies.
"""

from __future__ import annotations

import numpy as np


#: The oid dtype of a materialized head.
_OID = np.dtype(np.int64)


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

    One slot is set by the storage layer only: ``merged``, on a column's
    persistent and insert-delta BATs, is the pre-built void-headed view over
    both (one tail buffer holds them), which ``projection`` over the
    persistent BAT gathers from.
    """

    __slots__ = ("_head", "tail", "hseqbase", "name", "merged")

    def __init__(
        self,
        tail: np.ndarray,
        head: np.ndarray | None = None,
        *,
        hseqbase: int = 0,
        name: str = "",
    ) -> None:
        # Exact-type checks first: BATs are built on every query, and
        # ``np.asarray`` of an array that already fits costs a call for nothing.
        if type(tail) is not np.ndarray:
            tail = np.asarray(tail)
        if tail.ndim != 1:
            raise ValueError("a BAT tail must be a one-dimensional array")
        if head is not None:
            if type(head) is not np.ndarray or head.dtype is not _OID:
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
        self.merged: BAT | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_pairs(cls, head: np.ndarray, tail: np.ndarray, *, name: str = "") -> "BAT":
        """A BAT with explicit head oids."""
        return cls(np.asarray(tail), np.asarray(head, dtype=np.int64), name=name)

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

    # -- basic operations -----------------------------------------------------

    def slice(self, start: int, stop: int) -> "BAT":
        """Positional slice ``[start, stop)`` preserving head oids (a view).

        A slice covering the whole BAT returns ``self`` — BATs are never
        mutated by operators, and a ``LIMIT`` above the candidate count
        (``algebra.slice``) is the common case.
        """
        start = max(0, int(start))
        stop = min(self.count, int(stop))
        if start == 0 and stop == self.count:
            return self
        if self._head is None:
            return BAT(self.tail[start:stop], hseqbase=self.hseqbase + start, name=self.name)
        return BAT(self.tail[start:stop], self._head[start:stop], name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head_kind = "void" if self.is_void_head else "oid"
        return f"BAT(name={self.name!r}, count={self.count}, head={head_kind}, dtype={self.tail.dtype})"

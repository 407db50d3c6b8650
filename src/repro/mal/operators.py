"""Relational operators over BATs (the ``algebra`` and ``aggr`` modules).

MonetDB's execution paradigm materializes every intermediate result; the
operators here follow the same style — each call produces a fresh BAT.  Only
the operators the lowered plans run are implemented here; the rest of the
Figure-1 plan (``select`` / ``kunion`` / ``kdifference`` / ``markT`` /
``join``) runs only in the test suite's interpreter oracle.

Conventions:

* ``uselect`` evaluates a range predicate on the tail and returns a
  *candidate list* whose tail repeats the head oids, mirroring MonetDB's
  ``[oid, nil]`` result.
* ``kintersect`` operates on the head-oid sets, keeping the pair of the left
  operand.
* ``projection`` reconstructs a result column as one positional ``gather``
  at the candidate oids.
* ``live_rows`` is the lowered plan's one step for pending inserts and
  deletes: a select's candidates with the tombstoned oids dropped and the
  insert delta's hits appended.
"""

from __future__ import annotations

import numpy as np

from repro.storage.bat import BAT


# ---------------------------------------------------------------------------
# Selections
# ---------------------------------------------------------------------------


def _qualifying(
    tail: np.ndarray, low: float, high: float, include_low: bool, include_high: bool
) -> np.ndarray:
    """Positions of the ``tail`` values inside the range (one mask scan)."""
    mask = (tail >= low) if include_low else (tail > low)
    mask &= (tail <= high) if include_high else (tail < high)
    return np.flatnonzero(mask)


def uselect(
    bat: BAT, low: float, high: float, *, include_low: bool = True, include_high: bool = False
) -> BAT:
    """A candidate list: the head oids whose tail value falls into the range.

    The default bounds semantics ``[low, high)`` matches the rest of the
    library; the SQL ``BETWEEN`` compiler passes ``include_high=True``.  Void
    heads are never materialized in full: only the qualifying oids are
    computed from the dense sequence.
    """
    positions = _qualifying(bat.tail, low, high, include_low, include_high)
    if positions.size == 0:
        return _EMPTY_CANDIDATES
    if bat.is_void_head:
        heads = positions.astype(np.int64) + bat.hseqbase
    else:
        heads = bat.head[positions]
    return BAT.from_pairs(heads, heads, name=bat.name)


#: The empty candidate list every empty-range ``uselect`` shares (operators
#: materialize fresh BATs but never mutate existing ones, so one immutable
#: empty instance is safe to hand out repeatedly).
_EMPTY_CANDIDATES = BAT.from_pairs(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


# ---------------------------------------------------------------------------
# Set operations on head oids
# ---------------------------------------------------------------------------


def kintersect(left: BAT, right: BAT) -> BAT:
    """Pairs of ``left`` whose head oid appears in ``right`` (semijoin, hashed)."""
    if left.count == 0 or right.count == 0:
        return BAT.from_pairs(np.empty(0, dtype=np.int64), left.tail[:0], name=left.name)
    heads = left.head
    keep = np.isin(heads, right.head)
    return BAT.from_pairs(heads[keep], left.tail[keep], name=left.name)


# ---------------------------------------------------------------------------
# Tuple reconstruction
# ---------------------------------------------------------------------------


def gather(column: BAT, oids: np.ndarray) -> np.ndarray:
    """The tail values of the void-headed ``column`` at head oids ``oids``.

    The one positional gather, unchecked: for oids the column is known to hold
    (the executor's batch path, whose oids come from a select on
    the same table) — one numpy call per member per column.
    """
    return column.tail[oids - column.hseqbase if column.hseqbase else oids]


def projection(column: BAT, oids: np.ndarray) -> np.ndarray:
    """:func:`gather` behind a guard on the oids (``algebra.projection``).

    A persistent BAT is read as its column's logical rows: through the merged
    view the storage layer keeps over it and its pending inserts.  An oid the
    column does not hold is dropped — never wrapped around, as a negative
    numpy index would be — and an empty operand yields an empty array of the
    column's dtype.  The answer is always a fresh array, shared with nothing.
    """
    if column.merged is not None:
        column = column.merged
    if oids.size == 0:
        return np.empty(0, dtype=column.tail.dtype)
    size = column.count
    positions = oids - column.hseqbase if column.hseqbase else oids
    # One reduction checks both ends: viewed unsigned, a negative position is
    # larger than any column (``maximum.reduce``: ``max`` without its wrapper).
    unsigned = positions.astype(np.int64, copy=False).view(np.uint64)
    if np.maximum.reduce(unsigned) >= size:
        oids = oids[(positions >= 0) & (positions < size)]
    return gather(column, oids)


def live_rows(
    candidates: BAT,
    inserts: BAT,
    alive: np.ndarray | None,
    start: int,
    low: float,
    high: float,
    *,
    include_low: bool = True,
    include_high: bool = False,
) -> BAT:
    """A select's ``candidates`` as the live hits of the whole column.

    ``candidates`` answer the range over the oids below ``start`` (where the
    select's source ends).  The tombstoned ones are dropped — one gather,
    ``alive[heads]`` (``alive`` is ``None`` while nothing is deleted) — and
    the hits of one mask scan of the insert delta ``inserts`` from oid
    ``start`` on are appended.  O(result + pending rows); an answer with
    nothing to drop or append is ``candidates`` itself.
    """
    tail = inserts.tail[max(0, start - inserts.hseqbase):]
    if alive is None and not tail.size:
        return candidates
    heads = candidates.head
    if alive is not None:
        heads = heads[alive[heads]]
    if tail.size:
        hits = _qualifying(tail, low, high, include_low, include_high)
        hits += inserts.hseqbase + inserts.count - tail.size
        if alive is not None:
            hits = hits[alive[hits]]
        heads = np.concatenate((heads, hits))
    return BAT.from_pairs(heads, heads, name=candidates.name)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def aggr_sum(bat: BAT) -> float:
    """Sum of the tail values."""
    return float(bat.tail.sum()) if bat.count else 0.0


def aggr_count(bat: BAT) -> int:
    """Number of pairs."""
    return bat.count


def aggr_avg(bat: BAT) -> float:
    """Mean of the tail values (0.0 for an empty BAT)."""
    return float(bat.tail.mean()) if bat.count else 0.0


def aggr_min(bat: BAT) -> float:
    """Minimum tail value."""
    if not bat.count:
        raise ValueError("min() over an empty BAT")
    return float(bat.tail.min())


def aggr_max(bat: BAT) -> float:
    """Maximum tail value."""
    if not bat.count:
        raise ValueError("max() over an empty BAT")
    return float(bat.tail.max())

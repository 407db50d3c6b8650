"""Relational operators over BATs (the ``algebra``, ``bat`` and ``aggr`` modules).

MonetDB's execution paradigm materializes every intermediate result; the
operators here follow the same style — each call produces a fresh BAT.  Only
the operators appearing in the paper's plans (Figure 1 and the §3.1 iterator
snippet) plus a few aggregates needed by the examples are implemented.

Conventions:

* ``select``/``uselect`` evaluate a range predicate on the tail and return the
  qualifying pairs (``uselect`` returns a *candidate list* whose tail repeats
  the head oids, mirroring MonetDB's ``[oid, nil]`` result).
* ``kunion``/``kdifference`` operate on the head-oid sets, keeping the pair of
  the left operand.
* ``markT`` renumbers results densely in the tail; combined with ``reverse``
  and ``join`` it reconstructs final result columns exactly like Figure 1;
  ``projection`` is the same reconstruction as one positional ``gather``.
* ``live_rows`` is the lowered plan's one step for pending inserts and
  deletes: a select's candidates with the tombstoned oids dropped and the
  insert delta's hits appended.
"""

from __future__ import annotations

import numpy as np

from repro.storage.bat import BAT
from repro.util.sorted_search import sorted_probe


# ---------------------------------------------------------------------------
# Selections
# ---------------------------------------------------------------------------


def select(bat: BAT, low: float, high: float, *, include_low: bool = True, include_high: bool = False) -> BAT:
    """Pairs whose tail value falls into the given range.

    The default bounds semantics ``[low, high)`` matches the rest of the
    library; the SQL ``BETWEEN`` compiler passes ``include_high=True``.
    Void heads are never materialized in full: only the qualifying oids are
    computed from the dense sequence.

    Sorted tails (``tail_sorted`` — e.g. the pieces the BPM hands to
    rewritten plans) are answered by binary-search slicing, returning views
    without comparing a single tail value.  An empty operand (the usual state
    of the delta BATs) is passed through unchanged — nothing qualifies and
    operators never mutate their inputs.
    """
    if bat.tail.size == 0:
        return bat
    if bat.tail_sorted:
        return bat.value_slice(low, high, include_low=include_low, include_high=include_high)
    tail = bat.tail
    positions = _qualifying(tail, low, high, include_low, include_high)
    if bat.is_void_head:
        heads = positions.astype(np.int64) + bat.hseqbase
    else:
        heads = bat.head[positions]
    return BAT.from_pairs(heads, tail[positions], name=bat.name)


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
    """A candidate list: the head oids whose tail value qualifies."""
    qualifying = select(bat, low, high, include_low=include_low, include_high=include_high)
    if qualifying.tail.size == 0:
        return _EMPTY_CANDIDATES
    return BAT.from_pairs(qualifying.head, qualifying.head, name=bat.name)


#: The empty candidate list every empty-range ``uselect`` shares (operators
#: materialize fresh BATs but never mutate existing ones, so one immutable
#: empty instance is safe to hand out repeatedly).
_EMPTY_CANDIDATES = BAT.from_pairs(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), tail_sorted=True
)


def thetaselect(bat: BAT, value: float, operator: str) -> BAT:
    """Single-sided comparison selection (used by the SQL compiler for <, >, =)."""
    tail = bat.tail
    if bat.tail_sorted and operator != "!=":
        if operator == "<":
            return bat.slice(0, sorted_probe(tail, value, side="left"))
        if operator == "<=":
            return bat.slice(0, sorted_probe(tail, value, side="right"))
        if operator == ">":
            return bat.slice(sorted_probe(tail, value, side="right"), bat.count)
        if operator == ">=":
            return bat.slice(sorted_probe(tail, value, side="left"), bat.count)
        if operator == "==":
            return bat.slice(
                sorted_probe(tail, value, side="left"),
                sorted_probe(tail, value, side="right"),
            )
    comparators = {
        "<": tail < value,
        "<=": tail <= value,
        ">": tail > value,
        ">=": tail >= value,
        "==": tail == value,
        "!=": tail != value,
    }
    if operator not in comparators:
        raise ValueError(f"unknown comparison operator {operator!r}")
    mask = comparators[operator]
    return BAT.from_pairs(bat.head[mask], tail[mask], name=bat.name)


# ---------------------------------------------------------------------------
# Set operations on head oids
# ---------------------------------------------------------------------------


def kunion(left: BAT, right: BAT) -> BAT:
    """Union by head oid; pairs from ``left`` win on duplicates.

    When one operand is empty the other is passed through unchanged instead of
    being copied — the same shortcut MonetDB's operational optimizer takes for
    empty delta BATs, and essential to keep the per-query cost dominated by
    the actual scan.  With pending inserts the cost stays O(result + delta):
    a column's persistent and insert BATs yield the storage layer's pre-built
    view over both, and operands with disjoint oid ranges (persistent hits
    below insert hits) are concatenated.  Operands whose oids overlap take
    the hashing fall-through: correct, not fast.  The engine runs the
    lowered plan, which has no ``kunion`` over hits, so only the
    interpreter oracle running the Figure-1 plan (an adaptive column enabled
    over pending inserts holds oids the insert delta holds too) and direct
    calls reach it.
    """
    if right.count == 0:
        return left
    if left.count == 0:
        return right
    if left.merged is not None and left.merged is right.merged and left is not right:
        return left.merged
    left_heads, right_heads, right_tail = left.head, right.head, right.tail
    if left_heads.max() >= right_heads.min():
        right_only = ~np.isin(right_heads, left_heads)
        right_heads, right_tail = right_heads[right_only], right_tail[right_only]
    return BAT.from_pairs(
        np.concatenate([left_heads, right_heads]),
        np.concatenate([left.tail, right_tail]),
        name=left.name,
    )


def kdifference(left: BAT, right: BAT) -> BAT:
    """Pairs of ``left`` whose head oid does not appear in ``right``.

    An empty ``right`` operand passes ``left`` through unchanged (see
    :func:`kunion` for the rationale); against the deletion BAT the answer is
    one gather from its tombstone bitmap, ``alive[heads]``.  Anything else is
    hashed with ``np.isin``: correct, not fast — reached only by direct
    calls, since the Figure-1 cascade differences against the always-empty
    update delta and the deletion BAT alone.
    """
    if left.count == 0 or right.count == 0:
        return left
    heads = left.head
    if right.alive is not None:
        keep = right.alive[heads]
    else:
        keep = ~np.isin(heads, right.head)
    return BAT.from_pairs(heads[keep], left.tail[keep], name=left.name)


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


def mark_tail(bat: BAT, base: int = 0) -> BAT:
    """Replace the tail with a dense oid numbering starting at ``base`` (markT)."""
    dense = np.arange(base, base + bat.count, dtype=np.int64)
    return BAT.from_pairs(bat.head, dense, name=bat.name)


def join(left: BAT, right: BAT) -> BAT:
    """Equi-join ``left.tail == right.head`` producing ``(left.head, right.tail)``.

    This is the positional join used for tuple reconstruction: the left
    operand maps result positions to qualifying oids and the right operand
    maps oids to attribute values.
    """
    if left.count == 0 or right.count == 0:
        return BAT.from_pairs(np.empty(0, dtype=np.int64), right.tail[:0], name=right.name)
    left_keys = np.asarray(left.tail, dtype=np.int64)
    if right.is_void_head:
        positions = left_keys - right.hseqbase
        if positions.min() >= 0 and positions.max() < right.count:
            # Every key resolves (the usual case: candidate oids come from the
            # very column being reconstructed) — gather without building and
            # applying a validity mask.
            return BAT.from_pairs(left.head, right.tail[positions], name=right.name)
        valid = (positions >= 0) & (positions < right.count)
        return BAT.from_pairs(left.head[valid], right.tail[positions[valid]], name=right.name)
    order = np.argsort(right.head, kind="stable")
    sorted_heads = right.head[order]
    positions = np.searchsorted(sorted_heads, left_keys)
    positions = np.clip(positions, 0, sorted_heads.size - 1)
    valid = sorted_heads[positions] == left_keys
    matched = order[positions[valid]]
    return BAT.from_pairs(left.head[valid], right.tail[matched], name=right.name)


def gather(column: BAT, oids: np.ndarray) -> np.ndarray:
    """The tail values of the void-headed ``column`` at head oids ``oids``.

    The one positional gather, unchecked: for oids the column is known to hold
    (the executor's batch path, whose oids come from a select on
    the same table) — one numpy call per member per column.
    """
    return column.tail[oids - column.hseqbase if column.hseqbase else oids]


def projection(column: BAT, oids: np.ndarray) -> np.ndarray:
    """:func:`gather` behind :func:`join`'s guard (``algebra.projection``).

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


def leftfetchjoin(left: BAT, right: BAT) -> BAT:
    """Alias of :func:`join` kept for MAL-plan familiarity."""
    return join(left, right)


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

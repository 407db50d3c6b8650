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
    mask = (tail >= low) if include_low else (tail > low)
    mask &= (tail <= high) if include_high else (tail < high)
    positions = np.flatnonzero(mask)
    if bat.is_void_head:
        heads = positions.astype(np.int64) + bat.hseqbase
    else:
        heads = bat.head[positions]
    return BAT.from_pairs(heads, tail[positions], name=bat.name)


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


def _heads_in(heads: np.ndarray, members: np.ndarray, members_sorted: bool) -> np.ndarray:
    """Mask of the oids in ``heads`` that appear in the head oids ``members``.

    A sorted head (the deletion list, any void head) is probed by binary
    search, O(len(heads) · log).  Anything else — in the Figure-1 cascade only
    the update delta, which no public write API fills — is hashed with
    ``np.isin``: correct, not fast.
    """
    if not members_sorted:
        return np.isin(heads, members)
    slots = np.searchsorted(members, heads)
    np.minimum(slots, members.size - 1, out=slots)
    return members[slots] == heads


def kunion(left: BAT, right: BAT) -> BAT:
    """Union by head oid; pairs from ``left`` win on duplicates.

    When one operand is empty the other is passed through unchanged instead of
    being copied — the same shortcut MonetDB's operational optimizer takes for
    empty delta BATs, and essential to keep the per-query cost dominated by
    the actual scan.  With pending inserts the cost stays O(result + delta):
    an insert delta that densely continues ``left`` yields the storage
    layer's pre-built view over both, and operands with disjoint oid ranges
    (persistent hits below insert hits) are concatenated.  Only operands that
    are neither — update deltas, which no public write API fills — take the
    hashing fall-through: correct, not fast.
    """
    if right.count == 0:
        return left
    if left.count == 0:
        return right
    if right.dense_union is not None and right.dense_union[0] is left:
        return right.dense_union[1]
    left_heads, right_heads, right_tail = left.head, right.head, right.tail
    if left_heads.max() >= right_heads.min():
        right_only = ~_heads_in(right_heads, left_heads, left.head_sorted)
        right_heads, right_tail = right_heads[right_only], right_tail[right_only]
    return BAT.from_pairs(
        np.concatenate([left_heads, right_heads]),
        np.concatenate([left.tail, right_tail]),
        name=left.name,
    )


def kdifference(left: BAT, right: BAT) -> BAT:
    """Pairs of ``left`` whose head oid does not appear in ``right``.

    An empty ``right`` operand passes ``left`` through unchanged (see
    :func:`kunion` for the rationale); the sorted deletion list is probed by
    binary search.
    """
    if left.count == 0 or right.count == 0:
        return left
    heads = left.head
    keep = ~_heads_in(heads, right.head, right.head_sorted)
    return BAT.from_pairs(heads[keep], left.tail[keep], name=left.name)


def kintersect(left: BAT, right: BAT) -> BAT:
    """Pairs of ``left`` whose head oid appears in ``right`` (semijoin)."""
    if left.count == 0 or right.count == 0:
        return BAT.from_pairs(np.empty(0, dtype=np.int64), left.tail[:0], name=left.name)
    heads = left.head
    keep = _heads_in(heads, right.head, right.head_sorted)
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
    (the executor's batch and snapshot paths, whose oids come from a select on
    the same table) — one numpy call per member per column.
    """
    return column.tail[oids - column.hseqbase if column.hseqbase else oids]


def projection(column: BAT, oids: np.ndarray) -> np.ndarray:
    """:func:`gather` behind :func:`join`'s guard (``algebra.projection``).

    An oid the column does not hold is dropped — never wrapped around, as a
    negative numpy index would be — and an empty operand yields an empty array
    of the column's dtype.
    """
    if oids.size == 0:
        return column.tail[:0]
    first, end = column.hseqbase, column.hseqbase + column.count
    if oids.min() < first or oids.max() >= end:
        oids = oids[(oids >= first) & (oids < end)]
    return gather(column, oids)


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

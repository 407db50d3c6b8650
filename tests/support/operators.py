"""Figure 1's kernels: the BAT operators only the interpreter oracle runs.

The engine runs the lowering of each plan, whose kernels live in
:mod:`repro.mal.operators`.  The rest of the paper's Figure-1 plan —
``select`` over the BPM's pieces, ``kunion`` / ``kdifference`` over the bind
levels and the deletion BAT, ``markT`` / ``reverse`` / ``join`` to rebuild
the result tuples — runs only in the oracle the lowering is held against
(:mod:`tests.support.figure1`).  Like every MAL operator, each call
materializes a fresh BAT and never mutates its operands.
"""

from __future__ import annotations

import numpy as np

from repro.storage.bat import BAT


def reverse(bat: BAT) -> BAT:
    """Swap head and tail (MAL ``bat.reverse``)."""
    return BAT(bat.head, np.asarray(bat.tail, dtype=np.int64), name=bat.name)


def select(
    bat: BAT, low: float, high: float, *, include_low: bool = True, include_high: bool = False
) -> BAT:
    """Pairs whose tail value falls into the range (default ``[low, high)``).

    A comparison scan; an empty operand is passed through unchanged.
    """
    tail = bat.tail
    if tail.size == 0:
        return bat
    mask = (tail >= low) if include_low else (tail > low)
    mask &= (tail <= high) if include_high else (tail < high)
    positions = np.flatnonzero(mask)
    if bat.is_void_head:
        heads = positions.astype(np.int64) + bat.hseqbase
    else:
        heads = bat.head[positions]
    return BAT.from_pairs(heads, tail[positions], name=bat.name)


def kunion(left: BAT, right: BAT) -> BAT:
    """Union by head oid; pairs from ``left`` win on duplicates.

    An empty operand passes the other through.  A column's persistent and
    insert BATs yield the storage layer's pre-built view over both, and
    operands with disjoint oid ranges (persistent hits below insert hits) are
    concatenated; overlapping ones — an adaptive column enabled over pending
    inserts holds oids the insert delta holds too — are deduplicated by
    hashing.
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
    """Pairs of ``left`` whose head oid does not appear in ``right`` (hashed)."""
    if left.count == 0 or right.count == 0:
        return left
    heads = left.head
    keep = ~np.isin(heads, right.head)
    return BAT.from_pairs(heads[keep], left.tail[keep], name=left.name)


def mark_tail(bat: BAT, base: int = 0) -> BAT:
    """Replace the tail with a dense oid numbering starting at ``base`` (markT)."""
    dense = np.arange(base, base + bat.count, dtype=np.int64)
    return BAT.from_pairs(bat.head, dense, name=bat.name)


def join(left: BAT, right: BAT) -> BAT:
    """Equi-join ``left.tail == right.head`` producing ``(left.head, right.tail)``.

    The positional join of tuple reconstruction: ``left`` maps result
    positions to qualifying oids, ``right`` maps oids to attribute values.  A
    key ``right`` does not hold is dropped.
    """
    if left.count == 0 or right.count == 0:
        return BAT.from_pairs(np.empty(0, dtype=np.int64), right.tail[:0], name=right.name)
    left_keys = np.asarray(left.tail, dtype=np.int64)
    if right.is_void_head:
        positions = left_keys - right.hseqbase
        valid = (positions >= 0) & (positions < right.count)
        return BAT.from_pairs(left.head[valid], right.tail[positions[valid]], name=right.name)
    order = np.argsort(right.head, kind="stable")
    sorted_heads = right.head[order]
    positions = np.searchsorted(sorted_heads, left_keys)
    positions = np.clip(positions, 0, sorted_heads.size - 1)
    valid = sorted_heads[positions] == left_keys
    matched = order[positions[valid]]
    return BAT.from_pairs(left.head[valid], right.tail[matched], name=right.name)

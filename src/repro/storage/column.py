"""Stored columns: persistent BATs plus delta BATs.

MonetDB's SQL layer represents every column of a relational table as a small
family of BATs: the persistent payload (bind level 0), the pending inserts
(level 1) and the pending updates (level 2); deletions are tracked per table
in a separate deletion BAT (``bind_dbat``).  The Fig-1 query plan unions and
differences these pieces before evaluating predicates — the reproduction
follows the same structure so that the generated plans look like the paper's.

Inserted rows always receive the next free oids, so the insert delta is the
dense continuation of the persistent BAT.  Both therefore live in one tail
buffer: ``bind(0)``, ``bind(1)`` and the merged logical column are three
void-headed views of it, and a read beside pending inserts never touches more
than its result plus the delta.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.storage.bat import BAT

#: Bind levels used by ``sql.bind`` in MAL plans.
BIND_PERSISTENT = 0
BIND_INSERTS = 1
BIND_UPDATES = 2


class StoredColumn:
    """One relational column stored as persistent + delta BATs.

    The write methods (:meth:`bulk_load`, :meth:`append`, :meth:`update`) are
    driven by the owning :class:`ColumnStore`, which keeps the table's oid
    allocation and ``has_deltas`` in step; call them through it.
    """

    def __init__(self, table: str, name: str, dtype: Any) -> None:
        self.table = table
        self.name = name
        self.dtype = np.dtype(dtype)
        self.bulk_load(np.empty(0, dtype=self.dtype))

    def qualified_name(self, level: int) -> str:
        """The diagnostic BAT name, e.g. ``"sys_P_ra_0"``."""
        return f"sys_{self.table}_{self.name}_{level}"

    # -- data access --------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of persistent values (excluding pending inserts)."""
        return self._persistent.count

    @property
    def value_width(self) -> int:
        """Bytes per value."""
        return int(self.dtype.itemsize)

    @property
    def size_bytes(self) -> int:
        """Total bytes across persistent and delta BATs."""
        return self._persistent.size_bytes + self._inserts.size_bytes + self._updates.size_bytes

    @property
    def has_deltas(self) -> bool:
        """True when pending inserts or updates exist for this column."""
        return bool(self._inserts.count or self._updates.count)

    def bind(self, level: int) -> BAT:
        """The BAT for a ``sql.bind`` at the given level (0, 1 or 2)."""
        if level == BIND_PERSISTENT:
            return self._persistent
        if level == BIND_INSERTS:
            return self._inserts
        if level == BIND_UPDATES:
            return self._updates
        raise ValueError(f"unknown bind level {level}; expected 0, 1 or 2")

    # -- modification -----------------------------------------------------------

    def bulk_load(self, values: np.ndarray, *, start_oid: int = 0) -> None:
        """Replace the column with freshly loaded values (no pending deltas)."""
        self._buffer = np.asarray(values, dtype=self.dtype)
        self._start_oid = int(start_oid)
        self._loaded = self._total = self._buffer.size
        self._updates = BAT.from_pairs(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=self.dtype),
            name=self.qualified_name(BIND_UPDATES),
        )
        self._reslice()

    def append(self, values: np.ndarray, *, start_oid: int) -> None:
        """Record newly inserted values: O(rows appended) while headroom lasts.

        The rows land behind the pending inserts in the shared tail buffer.
        When it is full the buffer is re-allocated with headroom for the
        pending delta to double (at least 1024 rows) — sized by the delta, not
        the column, so the resident column never doubles — and the column is
        copied once, the only O(column) step a write can take; views handed
        out earlier keep the array they were cut from.
        """
        values = np.asarray(values, dtype=self.dtype)
        if start_oid != self._start_oid + self._total:
            raise ValueError(
                f"inserted rows must continue the column densely at oid "
                f"{self._start_oid + self._total}, got {start_oid}"
            )
        total = self._total + values.size
        if total > self._buffer.size:
            headroom = max(1024, total - self._loaded)
            grown = np.empty(total + headroom, dtype=self.dtype)
            grown[: self._total] = self._buffer[: self._total]
            self._buffer = grown
        self._buffer[self._total : total] = values
        self._total = total
        self._reslice()

    def _reslice(self) -> None:
        """Re-cut the three void-headed views of the tail buffer (O(1), no copy)."""
        loaded, total, first = self._loaded, self._total, self._start_oid
        self._persistent = BAT(
            self._buffer[:loaded], hseqbase=first, name=self.qualified_name(BIND_PERSISTENT)
        )
        self._inserts = BAT(
            self._buffer[loaded:total], hseqbase=first + loaded,
            name=self.qualified_name(BIND_INSERTS),
        )
        merged = BAT(
            self._buffer[:total], hseqbase=first, name=self.qualified_name(BIND_PERSISTENT)
        )
        self._inserts.dense_union = (self._persistent, merged)

    def update(self, oids: np.ndarray, values: np.ndarray) -> None:
        """Record updated values in the update-delta BAT."""
        oids = np.asarray(oids, dtype=np.int64)
        values = np.asarray(values, dtype=self.dtype)
        if oids.size != values.size:
            raise ValueError("update oids and values must have equal length")
        fresh = BAT.from_pairs(oids, values, name=self.qualified_name(2))
        self._updates = self._updates.append(fresh)

    def merge_deltas(self) -> np.ndarray:
        """The logical column contents with deltas applied (no deletions).

        Equivalent to the kunion/kdifference cascade the SQL compiler emits,
        evaluated eagerly; used for loading adaptive columns and by tests.
        """
        merged = self._buffer[: self._total].copy()
        if self._updates.count:
            merged[self._updates.head] = self._updates.tail
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoredColumn({self.table}.{self.name}, dtype={self.dtype}, "
            f"count={self.count}, inserts={self._inserts.count})"
        )


class ColumnStore:
    """All columns of one table plus the table-level deletion BAT."""

    def __init__(self, table: str) -> None:
        self.table = table
        self.columns: dict[str, StoredColumn] = {}
        #: True once any column has a pending insert or update, or a row was
        #: deleted — maintained by the three write paths, read per statement.
        self.has_deltas = False
        self._set_deleted(np.empty(0, dtype=np.int64))
        self._next_oid = 0

    # -- schema -------------------------------------------------------------

    def add_column(self, name: str, dtype: Any) -> StoredColumn:
        """Create a column; fails if it already exists."""
        if name in self.columns:
            raise ValueError(f"column {name!r} already exists in table {self.table!r}")
        column = StoredColumn(self.table, name, dtype)
        self.columns[name] = column
        return column

    def column(self, name: str) -> StoredColumn:
        """Look up a column by name."""
        try:
            return self.columns[name]
        except KeyError as exc:
            raise KeyError(f"table {self.table!r} has no column {name!r}") from exc

    # -- data ------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of logical rows (loaded plus inserted, minus deletions)."""
        return self._next_oid - self._deleted_oids.count

    @property
    def deletion_bat(self) -> BAT:
        """The table's deletion BAT (``sql.bind_dbat``)."""
        return self._deleted_oids

    def bulk_load(self, data: dict[str, np.ndarray]) -> None:
        """Load aligned arrays into all columns at once (a fresh table)."""
        lengths = {name: np.asarray(values).size for name, values in data.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"bulk load arrays differ in length: {lengths}")
        missing = set(self.columns) - set(data)
        if missing:
            raise ValueError(f"bulk load is missing columns: {sorted(missing)}")
        unknown = set(data) - set(self.columns)
        if unknown:
            raise ValueError(f"bulk load has unknown columns: {sorted(unknown)}")
        for name, values in data.items():
            self.columns[name].bulk_load(values, start_oid=0)
        self._next_oid = next(iter(lengths.values()), 0)
        self._set_deleted(np.empty(0, dtype=np.int64))
        self.has_deltas = False

    def insert(self, data: dict[str, np.ndarray]) -> None:
        """Append rows to the insert deltas of all columns."""
        lengths = {name: np.asarray(values).size for name, values in data.items()}
        if set(data) != set(self.columns):
            raise ValueError("insert must provide every column of the table")
        if len(set(lengths.values())) > 1:
            raise ValueError(f"insert arrays differ in length: {lengths}")
        count = next(iter(lengths.values()), 0)
        for name, values in data.items():
            self.columns[name].append(values, start_oid=self._next_oid)
        self._next_oid += count
        if count:
            self.has_deltas = True

    def update(self, name: str, oids: np.ndarray, values: np.ndarray) -> None:
        """Record updated values of one column in its update delta."""
        self.column(name).update(oids, values)
        if np.size(oids):
            self.has_deltas = True

    def delete(self, oids: np.ndarray) -> None:
        """Mark the given oids as deleted; re-deleting a row is a no-op.

        The deletion list stays sorted and duplicate-free, so ``row_count``
        is exact and ``kdifference`` probes it by binary search.  Oids that
        were never allocated raise :class:`ValueError`.
        """
        deleted = self._deleted_oids.tail
        merged = np.concatenate((deleted, np.asarray(oids, dtype=np.int64)))
        # Timsort: the list so far is one sorted run, so this is near-linear.
        merged.sort(kind="stable")
        if merged.size and (merged[0] < 0 or merged[-1] >= self._next_oid):
            raise ValueError(
                f"cannot delete oids outside [0, {self._next_oid}) of table {self.table!r}"
            )
        distinct = np.ones(merged.size, dtype=bool)
        np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
        merged = merged[distinct]
        if merged.size != deleted.size:
            self._set_deleted(merged)
            self.has_deltas = True

    def _set_deleted(self, oids: np.ndarray) -> None:
        """Install a sorted, duplicate-free deletion list as the deletion BAT."""
        self._deleted_oids = BAT.from_pairs(
            oids, oids, name=f"sys_{self.table}_dbat", tail_sorted=True
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnStore(table={self.table!r}, columns={sorted(self.columns)}, rows={self.row_count})"

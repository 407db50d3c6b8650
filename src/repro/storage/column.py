"""Stored columns: persistent BATs plus delta BATs.

MonetDB's SQL layer represents every column of a relational table as a small
family of BATs: the persistent payload (bind level 0), the pending inserts
(level 1) and the pending updates (level 2); deletions are tracked per table
in a separate deletion BAT (``bind_dbat``).  The Fig-1 query plan unions and
differences these pieces before evaluating predicates — the reproduction
follows the same structure so that the generated plans look like the paper's.
No write fills level 2 (an update is a delete plus an insert): it stays an
always-empty BAT, there so that the plan is the paper's figure.

Inserted rows always receive the next free oids, so the insert delta is the
dense continuation of the persistent BAT.  Both therefore live in one tail
buffer: ``bind(0)``, ``bind(1)`` and the merged logical column are three
void-headed views of it, and a read beside pending inserts never touches more
than its result plus the delta.  Deletions are kept twice: as the sorted
deletion list and as a tombstone bitmap over the allocated oids, so dropping
the deleted rows from a result is one gather, whatever the list's length.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.storage.bat import BAT

#: Bind levels used by ``sql.bind`` in MAL plans.
BIND_PERSISTENT = 0
BIND_INSERTS = 1
BIND_UPDATES = 2


def _capacity(total: int, loaded: int) -> int:
    """Slots for ``total`` rows plus room for the pending delta to double (≥ 1024)."""
    return total + max(1024, total - loaded)


class StoredColumn:
    """One relational column stored as persistent + delta BATs.

    The write methods (:meth:`bulk_load`, :meth:`append`) are driven by the
    owning :class:`ColumnStore`, which keeps the table's oid allocation and
    ``has_deltas`` in step; call them through it.
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
        return self._persistent.size_bytes + self._inserts.size_bytes

    @property
    def has_deltas(self) -> bool:
        """True when pending inserts exist for this column."""
        return bool(self._inserts.count)

    def bind(self, level: int) -> BAT:
        """The BAT for a ``sql.bind`` at the given level (0, 1 or 2; 2 is always empty)."""
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
            grown = np.empty(_capacity(total, self._loaded), dtype=self.dtype)
            grown[: self._total] = self._buffer[: self._total]
            self._buffer = grown
        self._buffer[self._total : total] = values
        self._total = total
        self._reslice()

    def _reslice(self) -> None:
        """Re-cut the three void-headed views of the tail buffer (O(1), no copy).

        The persistent and insert BATs both name the merged view, so
        ``kunion`` of the two returns it and ``projection`` over the
        persistent BAT reaches the pending rows.
        """
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
        self._persistent.merged = self._inserts.merged = merged

    def merge_deltas(self) -> np.ndarray:
        """The logical column contents with pending inserts (no deletions).

        Equivalent to the kunion/kdifference cascade the SQL compiler emits,
        evaluated eagerly; used for loading adaptive columns and by tests.
        """
        return self._buffer[: self._total].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoredColumn({self.table}.{self.name}, dtype={self.dtype}, "
            f"count={self.count}, inserts={self._inserts.count})"
        )


class ColumnStore:
    """All columns of one table plus the table-level deletion BAT.

    Deletions live in two forms kept in step by :meth:`delete`: the sorted,
    duplicate-free deletion list (``row_count``, the ``sql.bind_dbat`` BAT)
    and a tombstone bitmap over the allocated oids (``alive[oid]`` is false
    once ``oid`` is deleted).  The bitmap grows with :meth:`insert` by the
    tail buffer's headroom rule (the headroom is alive) and is reset by
    :meth:`bulk_load`.  A deletion BAT, once handed out, keeps the bitmap it
    was cut with: the next :meth:`delete` copies the bitmap before setting
    bits, and only then.
    """

    def __init__(self, table: str) -> None:
        self.table = table
        self.columns: dict[str, StoredColumn] = {}
        #: True once any column has a pending insert, or a row was deleted —
        #: maintained by the write paths, read per wave and by the
        #: live-rows step.
        self.has_deltas = False
        self._reset(0)

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
        return self._next_oid - self._deleted.size

    @property
    def deletion_bat(self) -> BAT:
        """The table's deletion BAT (``sql.bind_dbat``), with its tombstone bitmap.

        The BAT never observes a later write: handing it out makes the next
        :meth:`delete` set its bits in a copy of the bitmap.
        """
        self._alive_shared = True
        deletions = BAT.from_pairs(
            self._deleted, self._deleted, name=f"sys_{self.table}_dbat", tail_sorted=True
        )
        deletions.alive = self._alive
        return deletions

    @property
    def live_mask(self) -> np.ndarray | None:
        """The tombstone bitmap itself, or ``None`` while no row is deleted.

        Covers at least every allocated oid.  It is the store's own array,
        changed in place by the next :meth:`delete`: a plan step reads it
        and lets go; whatever keeps it longer binds :attr:`deletion_bat`.
        """
        return self._alive if self._deleted.size else None

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
        self._reset(next(iter(lengths.values()), 0))
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
        total = self._next_oid + count
        if total > self._alive.size:
            grown = np.ones(_capacity(total, self._loaded), dtype=bool)
            grown[: self._next_oid] = self._alive[: self._next_oid]
            self._alive, self._alive_shared = grown, False
        self._next_oid = total
        if count:
            self.has_deltas = True

    def delete(self, oids: np.ndarray) -> None:
        """Mark the given oids as deleted; re-deleting a row is a no-op.

        O(oids given + deletion list): the fresh oids clear their bits and
        are merged into the sorted list, so ``row_count`` is exact.  Oids
        that were never allocated raise :class:`ValueError`.
        """
        oids = np.unique(np.asarray(oids, dtype=np.int64))
        if not oids.size:
            return
        if oids[0] < 0 or oids[-1] >= self._next_oid:
            raise ValueError(
                f"cannot delete oids outside [0, {self._next_oid}) of table {self.table!r}"
            )
        fresh = oids[self._alive[oids]]
        if not fresh.size:
            return
        if self._alive_shared:
            self._alive, self._alive_shared = self._alive.copy(), False
        self._alive[fresh] = False
        deleted = np.concatenate((self._deleted, fresh))
        deleted.sort(kind="stable")  # Timsort: two sorted runs merge in linear time
        self._deleted = deleted
        self.has_deltas = True

    def _reset(self, rows: int) -> None:
        """``rows`` loaded rows, none deleted: a fresh bitmap and deletion list."""
        self._next_oid = self._loaded = rows
        self._deleted = np.empty(0, dtype=np.int64)
        self._alive = np.ones(rows, dtype=bool)
        self._alive_shared = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnStore(table={self.table!r}, columns={sorted(self.columns)}, rows={self.row_count})"

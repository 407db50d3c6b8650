"""Connections and the administrative handle of the client API.

``repro.connect()`` is the DB-API 2.0 entry point: it wraps an engine
:class:`~repro.engine.database.Database` (creating a fresh in-memory one by
default) in a :class:`Connection` that hands out cursors and prepared
statements and exposes everything that is *not* query execution — DDL, bulk
loading, and the paper's adaptive-strategy controls — on one explicit
:attr:`Connection.admin` handle, so the query surface stays exactly PEP 249.
"""

from __future__ import annotations

import weakref
from typing import Any, Sequence

import numpy as np

from repro.api.cursor import Cursor
from repro.api.exceptions import InterfaceError, NotSupportedError, translating
from repro.api.prepared import PreparedStatement
from repro.engine.database import Database


class Admin:
    """Schema, data and adaptive-strategy administration of one connection.

    Deliberately separate from the cursor: DDL and strategy switches
    invalidate cached plans, and keeping them off the statement path makes
    that boundary visible in client code (``connection.admin.enable_adaptive``
    vs ``cursor.execute``).
    """

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection

    def _database(self) -> Database:
        if self._connection.closed:
            raise InterfaceError("connection is closed")
        return self._connection._database

    # -- schema and data ------------------------------------------------------

    def create_table(self, name: str, columns: dict[str, Any]) -> None:
        """Create a table from a ``{column: dtype}`` mapping."""
        with translating():
            self._database().create_table(name, columns)

    def drop_table(self, name: str) -> None:
        """Drop a table and any adaptive state attached to its columns."""
        with translating():
            self._database().drop_table(name)

    def bulk_load(self, table: str, data: dict[str, np.ndarray]) -> None:
        """Load aligned arrays into a freshly created table."""
        with translating():
            self._database().bulk_load(table, data)

    def insert(self, table: str, data: dict[str, np.ndarray]) -> None:
        """Append rows through the insert-delta BATs."""
        with translating():
            self._database().insert(table, data)

    def delete(self, table: str, oids: np.ndarray) -> None:
        """Mark rows (by oid) as deleted."""
        with translating():
            self._database().delete(table, oids)

    def table_names(self) -> list[str]:
        """All tables in the catalog."""
        return self._database().table_names()

    # -- adaptive strategy controls -------------------------------------------

    def enable_adaptive(self, table: str, column: str, **options: Any) -> Any:
        """Hand a column to the BPM (see :meth:`Database.enable_adaptive`).

        The unified strategy entry point: ``strategy=`` picks any registered
        adaptive strategy (``"segmentation"``, ``"replication"``,
        ``"unsegmented"``, or a plug-in), remaining keywords go to the model
        and strategy constructors.  Returns the adaptive column handle.
        """
        with translating():
            return self._database().enable_adaptive(table, column, **options)

    def disable_adaptive(self, table: str, column: str) -> None:
        """Return a column to plain positional organisation."""
        with translating():
            self._database().disable_adaptive(table, column)

    def adaptive_handle(self, table: str, column: str) -> Any:
        """The BPM handle of an adaptive column (for inspection)."""
        with translating():
            return self._database().adaptive_handle(table, column)

    # -- inspection -----------------------------------------------------------

    def explain(self, sql: str) -> str:
        """The optimized MAL plan in concrete syntax (like ``EXPLAIN``)."""
        with translating():
            return self._database().explain(sql)

    def cache_stats(self) -> dict[str, Any]:
        """Plan-cache and batch counters (see :meth:`Database.cache_stats`).

        ``total`` carries the cache-wide counters (hits, misses, evictions,
        size, capacity, generation, hit ratio), and ``batch`` reports the
        vectorized batch executor (waves run, queries batched vs fallen back,
        wave-size histogram).
        """
        return self._database().cache_stats()


class Connection:
    """A DB-API 2.0 connection to one self-organizing column-store instance.

    There is no transaction machinery behind this engine (the paper's
    prototype adapts storage, it does not journal), so :meth:`commit` is a
    no-op and :meth:`rollback` raises :class:`NotSupportedError` — conforming
    client code that only commits keeps working unchanged.
    """

    def __init__(
        self,
        database: Database | None = None,
        *,
        plan_cache_size: int = 128,
    ) -> None:
        with translating():
            self._database = (
                database
                if database is not None
                else Database(plan_cache_size=plan_cache_size)
            )
        self._closed = False
        self._admin = Admin(self)
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    def close(self) -> None:
        """Close the connection; further operations raise :class:`InterfaceError`.

        Idempotent, per PEP 249 — closing twice is allowed; *using* a closed
        connection is not.  Every cursor handed out by this connection —
        including those created implicitly by the :meth:`execute` /
        :meth:`executemany` shorthands — is closed with it, releasing the
        result sets it was holding.
        """
        self._closed = True
        for cursor in list(self._cursors):
            cursor.close()
        self._cursors.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def __enter__(self) -> "Connection":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- statement surfaces ---------------------------------------------------

    def cursor(self) -> Cursor:
        """A new cursor over this connection (closed with the connection)."""
        self._check_open()
        cursor = Cursor(self)
        self._cursors.add(cursor)
        return cursor

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare a placeholder statement; the plan is lowered exactly once."""
        self._check_open()
        return PreparedStatement(self, sql)

    def execute(self, sql: str, parameters: Any | None = None) -> Cursor:
        """Shorthand: a fresh cursor with ``sql`` already executed."""
        return self.cursor().execute(sql, parameters)

    def executemany(self, sql: str, seq_of_parameters: Sequence[Any]) -> Cursor:
        """Shorthand: a fresh cursor with ``sql`` executed per parameter set."""
        return self.cursor().executemany(sql, seq_of_parameters)

    # -- transaction stubs ----------------------------------------------------

    def commit(self) -> None:
        """No-op: every statement is immediately visible (no transactions)."""
        self._check_open()

    def rollback(self) -> None:
        """Unsupported: the engine keeps no undo log."""
        self._check_open()
        raise NotSupportedError("this engine has no transactions to roll back")

    # -- administration -------------------------------------------------------

    @property
    def admin(self) -> Admin:
        """DDL, bulk loading and adaptive-strategy administration."""
        return self._admin

    @property
    def database(self) -> Database:
        """The underlying engine instance (escape hatch for engine-level APIs)."""
        return self._database

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"Connection({state}, tables={self._database.table_names() if not self._closed else []})"


def connect(
    database: Database | None = None, *, plan_cache_size: int = 128
) -> Connection:
    """Open a connection to a column-store instance (PEP 249 module entry).

    With no arguments a fresh in-memory :class:`Database` is created; passing
    an existing engine instance wraps it (several connections may share one
    engine — the paper's self-organization is per-column state on the engine,
    transparent to every client).
    """
    return Connection(database, plan_cache_size=plan_cache_size)

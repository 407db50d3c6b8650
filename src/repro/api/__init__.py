"""The DB-API 2.0 (PEP 249) client facade of the repro engine.

The paper integrates self-organization "completely transparently for the SQL
front-end"; this package is that front-end for client code::

    import repro

    with repro.connect() as connection:
        connection.admin.create_table("p", {"objid": "int64", "ra": "float64"})
        connection.admin.bulk_load("p", {"objid": objids, "ra": ra_values})
        connection.admin.enable_adaptive("p", "ra", strategy="segmentation")

        cursor = connection.cursor()
        cursor.execute(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (205.1, 205.12)
        )
        rows = cursor.fetchall()

        select = connection.prepare(
            "SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi"
        )
        result = select.execute({"lo": 205.1, "hi": 205.12})

Parameterized execution binds straight into the engine's compiled plans: the
statement is lowered once, and every execution skips the parse *and*
the literal masking — the fastest way to a cached plan (see
``QueryResult.cache_level``).  The module-level attributes below are the
PEP 249 contract: ``paramstyle`` is ``"qmark"`` (``?``), with ``:name``
named style accepted as well.
"""

from repro.api.connection import Admin, Connection, connect
from repro.api.cursor import Cursor
from repro.api.exceptions import (
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    Warning,
)
from repro.api.prepared import PreparedStatement

#: PEP 249 module attributes.
apilevel = "2.0"
threadsafety = 1  # threads may share the module, not connections
paramstyle = "qmark"

__all__ = [
    "Admin",
    "Connection",
    "Cursor",
    "DataError",
    "DatabaseError",
    "Error",
    "IntegrityError",
    "InterfaceError",
    "InternalError",
    "NotSupportedError",
    "OperationalError",
    "PreparedStatement",
    "ProgrammingError",
    "Warning",
    "apilevel",
    "connect",
    "paramstyle",
    "threadsafety",
]

"""repro — a reproduction of "Self-organizing Strategies for a Column-store Database".

The package implements the paper's two workload-driven self-organizing
techniques for a column-store — **adaptive segmentation** and **adaptive
replication** — together with the substrates they rely on: a MonetDB-like
column-store engine (BAT storage, a MAL interpreter, a tactical optimizer
with a segment optimizer and a SQL front-end), an architecture-conscious
simulator counting memory reads and writes, workload generators and a
benchmark harness reproducing every figure and table of the evaluation.

Quickstart
----------

The client surface is DB-API 2.0 (PEP 249): ``repro.connect()`` opens a
connection whose cursors and prepared statements bind parameters straight
into compiled plans::

    import repro

    with repro.connect() as connection:
        connection.admin.create_table("p", {"objid": "int64", "ra": "float64"})
        connection.admin.bulk_load("p", {"objid": objids, "ra": ra_values})
        connection.admin.enable_adaptive("p", "ra", strategy="segmentation")
        cursor = connection.cursor()
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (205.1, 205.12))
        rows = cursor.fetchall()

The physical layer is importable directly as well:

>>> import numpy as np
>>> from repro import SegmentedColumn, AdaptivePageModel
>>> values = np.random.default_rng(0).integers(0, 1_000_000, size=100_000).astype(np.int32)
>>> column = SegmentedColumn(values, model=AdaptivePageModel(m_min=3072, m_max=12288))
>>> result = column.select(100_000, 200_000)
>>> result.count == int(((values >= 100_000) & (values < 200_000)).sum())
True
"""

from repro.core import (
    AdaptivePageModel,
    GaussianDice,
    IOAccountant,
    QueryLog,
    QueryStats,
    ReplicatedColumn,
    SegmentedColumn,
    SelectionResult,
    UnsegmentedColumn,
    ValueRange,
    available_strategies,
    create_strategy,
    model_from_name,
    register_strategy,
    segment_statistics,
)

# The DB-API 2.0 client facade (imported after repro.core: the api package
# pulls in the engine, which builds on the core substrates).
from repro.api import (  # noqa: E402
    Connection,
    Cursor,
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    PreparedStatement,
    ProgrammingError,
    Warning,  # noqa: A004 - the PEP 249 name shadows the builtin, as in sqlite3
    apilevel,
    connect,
    paramstyle,
    threadsafety,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptivePageModel",
    "Connection",
    "Cursor",
    "DataError",
    "DatabaseError",
    "Error",
    "GaussianDice",
    "IOAccountant",
    "IntegrityError",
    "InterfaceError",
    "InternalError",
    "NotSupportedError",
    "OperationalError",
    "PreparedStatement",
    "ProgrammingError",
    "QueryLog",
    "QueryStats",
    "ReplicatedColumn",
    "SegmentedColumn",
    "SelectionResult",
    "UnsegmentedColumn",
    "ValueRange",
    "Warning",
    "apilevel",
    "available_strategies",
    "connect",
    "create_strategy",
    "model_from_name",
    "paramstyle",
    "register_strategy",
    "segment_statistics",
    "threadsafety",
    "__version__",
]

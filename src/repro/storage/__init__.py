"""Storage substrate: BATs and the catalog.

This package reproduces the storage layer the paper's techniques sit on: the
MonetDB binary association tables (BATs) with contiguous, hole-free storage
that "can be conveniently split at any point" (§2), and a relational catalog
mapping SQL tables to BATs.
"""

from repro.storage.bat import BAT
from repro.storage.catalog import Catalog, TableSchema
from repro.storage.column import ColumnStore, StoredColumn

__all__ = [
    "BAT",
    "Catalog",
    "TableSchema",
    "ColumnStore",
    "StoredColumn",
]

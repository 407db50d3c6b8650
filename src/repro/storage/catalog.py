"""The relational catalog: table schemas and their BAT families.

The SQL compiler maps relational tables onto collections of BATs (§2); the
catalog is the authority for that mapping.  Which columns are adaptive is the
Bat Partition Manager's to know (``BatPartitionManager.is_managed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.storage.column import ColumnStore, StoredColumn


@dataclass(frozen=True)
class TableSchema:
    """A table name plus an ordered mapping of column names to dtypes."""

    name: str
    columns: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, name: str, columns: dict[str, Any]) -> "TableSchema":
        """Build a schema from a plain ``{column: dtype}`` mapping."""
        normalised = tuple((col, np.dtype(dtype).name) for col, dtype in columns.items())
        return cls(name=name, columns=normalised)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def dtype_of(self, column: str) -> np.dtype:
        for name, dtype in self.columns:
            if name == column:
                return np.dtype(dtype)
        raise KeyError(f"table {self.name!r} has no column {column!r}")


@dataclass
class Catalog:
    """All tables of the database."""

    schemas: dict[str, TableSchema] = field(default_factory=dict)
    stores: dict[str, ColumnStore] = field(default_factory=dict)

    # -- tables ---------------------------------------------------------------

    def create_table(self, name: str, columns: dict[str, Any]) -> TableSchema:
        """Create a table and its (empty) BAT family."""
        if name in self.schemas:
            raise ValueError(f"table {name!r} already exists")
        if not columns:
            raise ValueError(f"table {name!r} must have at least one column")
        schema = TableSchema.of(name, columns)
        store = ColumnStore(name)
        for column, dtype in schema.columns:
            store.add_column(column, dtype)
        self.schemas[name] = schema
        self.stores[name] = store
        return schema

    def drop_table(self, name: str) -> None:
        """Remove a table and its BATs."""
        self.schemas.pop(name, None)
        self.stores.pop(name, None)

    def table(self, name: str) -> ColumnStore:
        """The BAT family of a table."""
        try:
            return self.stores[name]
        except KeyError as exc:
            raise KeyError(f"unknown table {name!r}") from exc

    def schema(self, name: str) -> TableSchema:
        """The schema of a table."""
        try:
            return self.schemas[name]
        except KeyError as exc:
            raise KeyError(f"unknown table {name!r}") from exc

    def column(self, table: str, column: str) -> StoredColumn:
        """A column's BAT family."""
        return self.table(table).column(column)

    @property
    def table_names(self) -> list[str]:
        """All known tables, sorted."""
        return sorted(self.schemas)

"""The execution context shared by MAL module functions during one query."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Any

import numpy as np

from repro.storage.bat import BAT
from repro.storage.catalog import Catalog

#: How many spent result-set containers a context keeps for reuse.
_SCRATCH_LIMIT = 8


@dataclass
class _ResultSet:
    """Columns accumulated by ``sql.resultSet`` / ``sql.rsColumn``."""

    columns: dict[str, BAT] = field(default_factory=dict)
    exported: bool = False


@dataclass
class ExecutionContext:
    """Mutable per-query state visible to MAL module implementations.

    The ``sql`` module functions accumulate result sets and exported scalars;
    the BPM is reached through its own registered module and needs no direct
    slot.

    Contexts are reusable: the database keeps a small pool and calls
    :meth:`reset` between queries, so the warm execution path allocates no
    fresh per-query containers (spent result sets are kept as scratch and
    recycled by :meth:`new_result_set`).
    """

    catalog: Catalog
    result_sets: dict[int, _ResultSet] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    _next_result_set: int = 1
    _scratch: list[_ResultSet] = field(default_factory=list, repr=False)

    # -- result-set protocol used by the sql module ---------------------------

    def new_result_set(self) -> int:
        """Allocate a fresh result-set id (recycling a scratch container)."""
        result_set_id = self._next_result_set
        self._next_result_set += 1
        if self._scratch:
            result_set = self._scratch.pop()
            result_set.columns.clear()
            result_set.exported = False
        else:
            result_set = _ResultSet()
        self.result_sets[result_set_id] = result_set
        return result_set_id

    def add_result_column(self, result_set_id: int, name: str, bat: BAT) -> None:
        """Attach one output column to a result set."""
        if result_set_id not in self.result_sets:
            raise KeyError(f"unknown result set {result_set_id}")
        self.result_sets[result_set_id].columns[name] = bat

    def export_result(self, result_set_id: int) -> None:
        """Mark a result set as the query output."""
        if result_set_id not in self.result_sets:
            raise KeyError(f"unknown result set {result_set_id}")
        self.result_sets[result_set_id].exported = True

    def export_scalar(self, name: str, value: Any) -> None:
        """Record an aggregate output value, coerced to ``float``.

        Anything non-numeric is a bug in the producing MAL operator, so it
        raises immediately instead of leaking an unconverted object into the
        result (booleans and numpy scalar types are numeric and coerce).
        """
        if isinstance(value, (Real, np.floating, np.integer, np.bool_)):
            self.scalars[name] = float(value)
            return
        raise TypeError(
            f"aggregate {name!r} produced non-numeric value {value!r} "
            f"({type(value).__name__})"
        )

    # -- accessors used by the engine -----------------------------------------------

    def exported_columns(self) -> dict[str, np.ndarray]:
        """The columns of the exported result set as numpy arrays."""
        for result_set in self.result_sets.values():
            if result_set.exported:
                return {name: bat.tail.copy() for name, bat in result_set.columns.items()}
        return {}

    # -- pooling --------------------------------------------------------------------

    def reset(self) -> None:
        """Make the context reusable for the next query.

        Spent result-set containers move to the scratch list (bounded) so the
        next query's ``sql.resultSet`` reuses them instead of allocating.
        """
        if self.result_sets:
            free = _SCRATCH_LIMIT - len(self._scratch)
            if free > 0:
                self._scratch.extend(list(self.result_sets.values())[:free])
            self.result_sets.clear()
        self.scalars.clear()
        self._next_result_set = 1

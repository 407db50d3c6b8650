"""Query results returned by the engine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.profile import QueryProfile


@dataclass(slots=True)
class QueryResult:
    """The outcome of one SQL query.

    ``columns`` holds the projected columns as numpy arrays (empty for pure
    aggregate queries); ``scalars`` holds aggregate values keyed by their
    label (e.g. ``"count(*)"``).  ``sql`` is the text the statement arrived
    as — placeholder text on the prepared path, the literal text otherwise —
    and ``parameters`` carries the bound values (in placeholder-position
    order; on the literal path, the lifted literals), so ``query_history``
    keeps enough to reconstruct what each execution actually asked.  The
    timing fields separate the work spent in plain query processing from the
    work spent adapting the storage layout, which is the split Figure 10 of
    the paper reports.

    ``cache_level`` names how the result came about — ``"masked"`` (arrived
    as literal text and found its plan under the literal-masked text),
    ``"prepared"`` (a bound prepared handle, the client API's prepared path),
    ``"batched"`` (one member of a wave's vectorized batch pass),
    ``"snapshot"`` (a bound range select answered against a pinned index
    snapshot by a wave's reader pool) or ``"cold"`` (literal text whose plan
    was compiled for this query); :attr:`plan_cache_hit` and :attr:`batched`
    are read off it.  ``profile`` carries the per-stage wall-clock split and
    per-opcode execution counters; on the batched and snapshot paths it is a
    warm profile whose ``execute`` stage holds this member's share of the
    wave's cost (no plan runs there, so the other stages and the opcode
    counters are zero).
    """

    sql: str
    parameters: tuple[float, ...] = ()
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    plan_text: str = ""
    total_seconds: float = 0.0
    selection_seconds: float = 0.0
    adaptation_seconds: float = 0.0
    optimizer_seconds: float = 0.0
    cache_level: str = "cold"
    profile: QueryProfile | None = None

    @property
    def plan_cache_hit(self) -> bool:
        """Whether the plan came from the database's plan cache."""
        return self.cache_level != "cold"

    @property
    def batched(self) -> bool:
        """Whether a wave's vectorized batch pass answered this query."""
        return self.cache_level == "batched"

    @property
    def row_count(self) -> int:
        """Number of result rows (0 for aggregate-only results)."""
        if not self.columns:
            return 0
        return int(next(iter(self.columns.values())).size)

    @property
    def column_names(self) -> list[str]:
        """The projected column names in output order."""
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        """One projected column by name.

        A missing name raises the client API's ``ProgrammingError``, matching
        :meth:`scalar` — the two accessors share one exception contract.
        """
        try:
            return self.columns[name]
        except KeyError as exc:
            from repro.api.exceptions import ProgrammingError

            raise ProgrammingError(
                f"result has no column {name!r}; available: {self.column_names}"
            ) from exc

    def scalar(self, label: str) -> float:
        """One aggregate value by label, e.g. ``result.scalar("count(*)")``.

        A missing label raises the client API's ``ProgrammingError`` (matching
        the strictness of ``ExecutionContext.export_scalar`` on the producing
        side) rather than a bare ``KeyError``.
        """
        try:
            return self.scalars[label]
        except KeyError as exc:
            # Imported lazily: repro.api imports the engine at module level.
            from repro.api.exceptions import ProgrammingError

            raise ProgrammingError(
                f"result has no aggregate {label!r}; available: {sorted(self.scalars)}"
            ) from exc

    def to_rows(self, limit: int | None = None) -> list[tuple]:
        """The result as a list of tuples (for display and tests)."""
        if not self.columns:
            return []
        arrays = list(self.columns.values())
        count = arrays[0].size if limit is None else min(limit, arrays[0].size)
        return [tuple(array[i] for array in arrays) for i in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.scalars:
            return f"QueryResult(scalars={self.scalars})"
        return f"QueryResult(rows={self.row_count}, columns={self.column_names})"

"""First-class prepared statements: the client handle onto a lowered plan.

``Connection.prepare(sql)`` parses and lowers the placeholder statement
exactly once and hands back a :class:`PreparedStatement` holding the engine's
:class:`~repro.engine.plan_cache.PreparedPlan` — the compiled plan, the
pre-resolved environment slots and the binding template.  ``execute`` then
costs one bind validation and the plan execution: no SQL text is touched
again.  The handle survives schema/adaptive invalidations safely: when the
engine's plan cache would no longer run it (:meth:`PlanCache.is_current`),
the statement transparently re-prepares (re-lowering against the new
optimizer state) instead of serving a stale compiled plan.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.api.exceptions import InterfaceError, translate_exception, translating
from repro.engine.plan_cache import PreparedPlan
from repro.engine.result import QueryResult


class PreparedStatement:
    """One prepared statement bound to a connection.

    Execution returns the engine's :class:`QueryResult` (with
    ``cache_level == "prepared"`` and a zero-parse profile); use a cursor when
    you want DB-API fetch semantics — ``cursor.execute(sql, params)`` hits the
    same cached prepared plan.
    """

    def __init__(self, connection: Any, sql: str) -> None:
        self._connection = connection
        with translating():
            self._plan: PreparedPlan = connection._database.prepare_statement(sql)

    # -- introspection --------------------------------------------------------

    @property
    def sql(self) -> str:
        """The normalized statement text, placeholders included."""
        return self._plan.sql

    @property
    def parameter_count(self) -> int:
        """Number of placeholder positions to bind per execution."""
        return self._plan.binding.count

    @property
    def paramstyle(self) -> str:
        """``"qmark"``, ``"named"`` or ``"none"`` for this statement."""
        return self._plan.binding.style

    @property
    def plan_text(self) -> str:
        """The statement's Figure-1 MAL plan in concrete syntax (``EXPLAIN``'s first block)."""
        return self._refresh().text

    # -- execution ------------------------------------------------------------

    def _refresh(self) -> PreparedPlan:
        """The current plan, re-prepared if the engine's cache would not run it."""
        if self._connection.closed:
            raise InterfaceError("connection is closed")
        database = self._connection._database
        if not database.plan_cache.is_current(self._plan):
            with translating():
                self._plan = database.prepare_statement(self._plan.sql)
        return self._plan

    def execute(self, parameters: Any = ()) -> QueryResult:
        """Bind ``parameters`` (sequence or mapping) and run the plan."""
        plan = self._refresh()
        try:
            return self._connection._database.execute_prepared(plan, parameters)
        except Exception as exc:  # the hot door: translating() without its generator
            raise translate_exception(exc)

    def executemany(self, seq_of_parameters: Sequence[Any]) -> list[QueryResult]:
        """Run once per parameter set; range selects batch into one vectorized pass."""
        plan = self._refresh()
        with translating():
            return self._connection._database.execute_prepared_many(
                plan, list(seq_of_parameters)
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PreparedStatement({self.sql!r}, parameters={self.parameter_count}, "
            f"style={self.paramstyle})"
        )

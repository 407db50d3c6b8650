"""The PEP 249 cursor: execute, bind, fetch.

A cursor is a thin client-side view over :class:`~repro.engine.result
.QueryResult` rows.  ``execute(sql)`` without parameters takes the literal
path (the plan is found under the literal-masked text); ``execute(sql,
params)`` takes the prepared path — the statement's placeholder text is
looked up (or lowered once) in the plan cache and the bindings are validated
and written straight into the compiled plan's slot environment, skipping both
the parse and the literal masking.  ``executemany`` binds every parameter set
against one prepared statement and routes range selections on one adaptive
column — overlapping and disjoint alike — through the engine's vectorized
batch executor.

Everything after ``execute*`` — the fetch state machine, ``description``,
``rowcount`` — is :class:`_FetchCursor`, which the wire client's
``AsyncCursor`` (:mod:`repro.api.aio`) derives from as well.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, Self, Sequence, TypeVar

from repro.api.exceptions import InterfaceError, translate_exception, translating
from repro.engine.profile import QueryProfile
from repro.engine.result import QueryResult

#: ``description`` type codes are numpy dtype names; scalar aggregates are floats.
_SCALAR_TYPE = "float64"

#: A result as the fetch machine sees it (``QueryResult`` or ``RemoteResult``).
_Result = TypeVar("_Result")


class _FetchCursor(Generic[_Result]):
    """The fetch state machine both cursors derive from.

    Everything between ``execute*`` and the caller: the result list a
    statement installed, ``description`` / ``rowcount`` / ``result`` /
    ``results`` / ``cache_level``, the three fetches, iteration, ``close``
    and the PEP 249 no-ops.  It reads only ``scalars`` / ``columns`` /
    ``row_count`` / ``cache_level`` of a result, which
    :class:`~repro.engine.result.QueryResult` and the wire client's
    ``RemoteResult`` both expose; a subclass adds its ``execute`` /
    ``executemany`` and hands their results to :meth:`_install`.
    """

    def __init__(self, connection: Any) -> None:
        self._connection = connection
        self._closed = False
        self.arraysize = 1
        self._executed = False
        self._results: list[_Result] = []
        self._result_index = 0
        self._row_index = 0
        self._description: list[tuple] | None = None
        #: Whether ``_description`` still has to be read off the first result.
        self._undescribed = False
        self._rowcount = -1

    # -- state ----------------------------------------------------------------

    @property
    def connection(self) -> Any:
        """The connection this cursor belongs to (PEP 249 extension)."""
        return self._connection

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called (or the connection closed)."""
        return self._closed or self._connection.closed

    def close(self) -> None:
        """Close the cursor; further operations raise :class:`InterfaceError`."""
        self._closed = True
        self._results = []
        self._description = None
        self._undescribed = False

    def _check_open(self) -> None:
        if self.closed:
            raise InterfaceError("cursor is closed")

    def _install(self, results: list[_Result]) -> None:
        """Point the fetch state at a fresh list of results."""
        self._executed = True
        self._results = results
        self._result_index = 0
        self._row_index = 0
        # Built on first read: most callers fetch rows and never look at it.
        self._description = None
        self._undescribed = bool(results)
        self._rowcount = sum(map(self._result_rows, results))

    @staticmethod
    def _describe(result: _Result) -> list[tuple]:
        """The 7-item ``description`` sequence of one result (PEP 249)."""
        if result.scalars:
            return [
                (label, _SCALAR_TYPE, None, 8, None, None, None)
                for label in result.scalars
            ]
        return [
            (name, array.dtype.name, None, int(array.dtype.itemsize), None, None, None)
            for name, array in result.columns.items()
        ]

    @staticmethod
    def _result_rows(result: _Result) -> int:
        """Fetchable rows of one result: row count, or 1 for a scalar row."""
        if result.scalars:
            return 1
        return result.row_count

    # -- results --------------------------------------------------------------

    @property
    def description(self) -> list[tuple] | None:
        """Column metadata of the current result set (PEP 249 7-tuples)."""
        if self._undescribed:
            self._description = self._describe(self._results[0])
            self._undescribed = False
        return self._description

    @property
    def rowcount(self) -> int:
        """Rows produced by the last operation (-1 before any execute)."""
        return self._rowcount

    @property
    def result(self) -> _Result | None:
        """The engine-level result of the last statement (extension)."""
        return self._results[-1] if self._results else None

    @property
    def results(self) -> list[_Result]:
        """Every result of the last operation (one per ``executemany`` binding)."""
        return list(self._results)

    @property
    def cache_level(self) -> str | None:
        """Plan-cache level that answered the last statement (extension)."""
        result = self.result
        return result.cache_level if result is not None else None

    # -- fetching -------------------------------------------------------------

    def fetchone(self) -> tuple | None:
        """The next row, or ``None`` when the result set is exhausted.

        A pure-aggregate result produces exactly one row holding the scalar
        values in ``description`` order — ``fetchone()`` on
        ``SELECT count(*)`` returns a 1-tuple, mirroring
        ``QueryResult.scalar``.
        """
        self._check_open()
        if not self._executed:
            raise InterfaceError("no result set: call execute() first")
        # An executemany over zero bindings is executed-but-empty: fetches
        # return no rows rather than raising.
        while self._result_index < len(self._results):
            result = self._results[self._result_index]
            if self._row_index < self._result_rows(result):
                row = self._row(result, self._row_index)
                self._row_index += 1
                return row
            self._result_index += 1
            self._row_index = 0
        return None

    @staticmethod
    def _row(result: _Result, index: int) -> tuple:
        if result.scalars:
            return tuple(result.scalars.values())
        return tuple(array[index] for array in result.columns.values())

    @staticmethod
    def _rows_slice(result: _Result, start: int, stop: int) -> list[tuple]:
        """Rows ``[start, stop)`` of one result, materialized in bulk.

        One ``zip`` over column slices instead of a per-row tuple build —
        this is what makes ``fetchall`` on a large selection cheap.
        """
        if result.scalars:
            return [tuple(result.scalars.values())] if start == 0 and stop > 0 else []
        return list(zip(*(array[start:stop] for array in result.columns.values())))

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        """The next ``size`` rows (defaults to :attr:`arraysize`)."""
        self._check_open()
        if not self._executed:
            raise InterfaceError("no result set: call execute() first")
        if size is None:
            size = self.arraysize
        rows: list[tuple] = []
        remaining = max(size, 0)
        while remaining > 0 and self._result_index < len(self._results):
            result = self._results[self._result_index]
            available = self._result_rows(result) - self._row_index
            if available <= 0:
                self._result_index += 1
                self._row_index = 0
                continue
            take = min(remaining, available)
            rows.extend(self._rows_slice(result, self._row_index, self._row_index + take))
            self._row_index += take
            remaining -= take
        return rows

    def fetchall(self) -> list[tuple]:
        """Every remaining row."""
        self._check_open()
        if not self._executed:
            raise InterfaceError("no result set: call execute() first")
        rows: list[tuple] = []
        while self._result_index < len(self._results):
            result = self._results[self._result_index]
            total = self._result_rows(result)
            if self._row_index < total:
                rows.extend(self._rows_slice(result, self._row_index, total))
            self._result_index += 1
            self._row_index = 0
        return rows

    def __iter__(self) -> Iterator[tuple]:
        return self

    def __next__(self) -> tuple:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- PEP 249 no-ops -------------------------------------------------------

    def setinputsizes(self, sizes: Any) -> None:
        """Required by PEP 249; this engine needs no sizing hints."""

    def setoutputsize(self, size: Any, column: Any | None = None) -> None:
        """Required by PEP 249; this engine needs no sizing hints."""

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Cursor(_FetchCursor[QueryResult]):
    """A database cursor (PEP 249) bound to one :class:`~repro.api.Connection`.

    Attributes beyond the PEP: ``result`` (the :class:`QueryResult` of the
    last statement), ``results`` (all results of the last ``executemany``),
    ``cache_level`` (how the last statement's result came about:
    ``masked``/``prepared``/``batched``/``cold``) and
    ``profile`` (its per-stage :class:`QueryProfile`).
    """

    # -- execution ------------------------------------------------------------

    def execute(self, operation: str, parameters: Any | None = None) -> "Cursor":
        """Run one statement; returns the cursor itself (so fetches chain).

        Without ``parameters`` the SQL must carry its literals inline (the
        classic path).  With ``parameters`` the SQL must carry ``?`` positional
        or ``:name`` named placeholders; the statement is prepared (once per
        text, cached) and the values are bound without re-parsing.
        """
        self._check_open()
        database = self._connection._database
        try:
            if parameters is None:
                result = database.execute(operation)
            else:
                prepared = database.prepare_statement(operation)
                result = database.execute_prepared(prepared, parameters)
        except Exception as exc:  # the hot door: translating() without its generator
            raise translate_exception(exc)
        self._install([result])
        return self

    def executemany(
        self, operation: str, seq_of_parameters: Sequence[Any]
    ) -> "Cursor":
        """Run one placeholder statement once per parameter set.

        The statement is prepared exactly once; every binding is validated
        against that one shape up front.  Range selections on one adaptive
        column — overlapping and disjoint alike — are answered by the engine's
        vectorized batch executor (one kernel pass for the whole batch);
        everything else executes individually.  The fetchable rows are the
        concatenation of every execution's rows, in input order.
        """
        self._check_open()
        database = self._connection._database
        with translating():
            prepared = database.prepare_statement(operation)
            results = database.execute_prepared_many(prepared, list(seq_of_parameters))
        self._install(results)
        return self

    @property
    def profile(self) -> QueryProfile | None:
        """Per-stage profile of the last statement (extension)."""
        result = self.result
        return result.profile if result is not None else None

"""SQL → MAL code generation.

:func:`figure1` emits plans with the structure of the paper's Figure 1: every
predicate column is bound at its three levels (persistent, inserts, updates)
plus the table's deletion BAT, the range selection is evaluated against each
level and combined with ``kunion``/``kdifference``, deleted oids are removed,
and the surviving candidate list drives positional joins (``markT`` +
``reverse`` + ``join``) that reconstruct the projected columns — after an
``algebra.slice`` of the candidate list when the statement carries a ``LIMIT``.
Aggregates are applied to the reconstructed column and exported as scalars
(a ``LIMIT`` bounds result rows, so it never changes an aggregate's one row).

That program is *naive on purpose* — exactly like the SQL compiler in the
paper — and leaves all physical decisions (segment awareness in particular)
to the tactical optimizer that runs afterwards.  The optimized Figure-1 plan
is only the text a statement is shown as (``explain``, ``PreparedPlan.text``),
built when that text is first read, from a frozen table schema: nothing on a
query path calls :func:`figure1` or :meth:`SQLCompiler.compile`.

What the engine runs is :meth:`SQLCompiler.lower`, emitted straight from the
statement: per predicate one select — ``bpm.take`` + ``bpm.select`` on a
BPM-managed column, ``sql.bind`` + ``algebra.uselect`` otherwise — and one
``sql.live`` step that drops tombstoned oids and appends the pending-insert
hits; ``algebra.kintersect`` between predicates, ``sql.tid`` (the table's live
oids) without one; ``algebra.slice`` for a ``LIMIT``; one
``algebra.projection`` per projected column.  Both programs share the
aggregate and result export, and :meth:`SQLCompiler.name` numbers them
(``s<N>_0``, in prepare order).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.mal.builder import ProgramBuilder
from repro.mal.program import Const, MALProgram, Var
from repro.sql.ast import ComparisonPredicate, Placeholder, RangePredicate, SelectStatement
from repro.sql.parameters import parameter_names
from repro.storage.catalog import Catalog, TableSchema

#: Schema name used in generated ``sql.bind`` calls (MonetDB's default).
SCHEMA = "sys"


class SQLCompiler:
    """Numbers statements and generates their MAL programs against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._statement_counter = 0

    # -- public API ---------------------------------------------------------

    def name(self, statement: SelectStatement) -> str:
        """The next program name, ``s<N>_0``: statements are numbered in compile order.

        An unknown table raises ``KeyError`` before the counter advances.
        """
        self.catalog.schema(statement.table)
        self._statement_counter += 1
        return f"s{self._statement_counter}_0"

    def compile(self, statement: SelectStatement) -> MALProgram:
        """Number one statement and compile it into its Figure-1 MAL program."""
        name = self.name(statement)
        return figure1(statement, self.catalog.schema(statement.table), name)

    def lower(
        self,
        statement: SelectStatement,
        is_managed: Callable[[str, str], bool],
        *,
        name: str,
    ) -> MALProgram:
        """The straight-line program the executor runs for ``statement``.

        ``is_managed(table, column)`` says whether the BPM organises a
        column; its predicates select through ``bpm.take`` / ``bpm.select``,
        where adaptation piggy-backs.  Every column is bound once, at its
        persistent level: ``sql.live`` and ``algebra.projection`` read the
        column's pending inserts and tombstones themselves.  ``name`` names
        the program (the engine passes :meth:`name`'s).  A malformed
        statement fails as :func:`figure1` fails on it: predicates first,
        then the projected columns.
        """
        table = statement.table
        schema = self.catalog.schema(table)
        builder = ProgramBuilder(name=name, parameters=parameter_names(statement))
        binds: dict[str, str] = {}

        def bind(column: str) -> str:
            if column not in binds:
                binds[column] = builder.call(
                    "sql", "bind", Const(SCHEMA), Const(table), Const(column), Const(0)
                )
            return binds[column]

        candidate: str | None = None
        for predicate in statement.predicates:
            column = predicate.column
            bounds = _bound_operands(predicate)
            if is_managed(table, column):
                source = builder.call(
                    "bpm", "take", Const(SCHEMA), Const(table), Const(column),
                    comment=f"segment-aware sorted scan of {table}.{column}",
                )
                hits = builder.call("bpm", "select", builder.var(source), *bounds)
            else:
                source = bind(column)
                hits = builder.call("algebra", "uselect", builder.var(source), *bounds)
            live = builder.call(
                "sql", "live", builder.var(hits), builder.var(source), Const(SCHEMA),
                Const(table), Const(column), *bounds, comment=f"live rows of {table}.{column}",
            )
            candidate = live if candidate is None else builder.call(
                "algebra", "kintersect", builder.var(candidate), builder.var(live)
            )
        _validate(statement, schema)
        if candidate is None:
            candidate = builder.call(
                "sql", "tid", Const(SCHEMA), Const(table), comment=f"live rows of {table}"
            )

        def project(candidates: str, column: str) -> str:
            return builder.call(
                "algebra", "projection", builder.var(candidates), builder.var(bind(column)),
                comment=f"reconstruct {table}.{column}",
            )

        _export(builder, statement, schema, candidate, project)
        return builder.build()

    @staticmethod
    def bounds(predicate: RangePredicate | ComparisonPredicate) -> tuple[float, float, bool, bool]:
        """A predicate as SQL bounds ``(low, high, include_low, include_high)``."""
        if isinstance(predicate, RangePredicate):
            return predicate.low, predicate.high, predicate.include_low, predicate.include_high
        value = predicate.value
        if predicate.operator in {"<", "<="}:
            return -np.inf, value, False, predicate.operator == "<="
        if predicate.operator in {">", ">="}:
            return value, np.inf, predicate.operator == ">=", False
        if predicate.operator == "=":
            return value, value, True, True
        # '<>' selects two ranges, and every predicate compiles to one range
        # select (the one a BPM-managed column adapts on): it is rejected.
        raise ValueError("'<>' predicates are not supported by the MAL compiler")


# -- the Figure-1 program ----------------------------------------------------------


def figure1(statement: SelectStatement, schema: TableSchema, name: str) -> MALProgram:
    """``statement``'s Figure-1 MAL program, named ``name``, over the table ``schema``.

    Placeholder bounds (a prepared statement, or literal text lifted by
    :func:`repro.sql.parameters.mask_literals`) compile into MAL variable
    references, and their names are recorded on the program as its
    parameters.  Reads nothing but its arguments, so a plan's text can be
    built long after the catalog moved on.
    """
    builder = ProgramBuilder(name=name, parameters=parameter_names(statement))
    candidate = _figure1_candidates(builder, statement, schema)
    _validate(statement, schema)
    positions: list[str] = []

    def reconstruct(candidates: str, column: str) -> str:
        if not positions:
            positions.append(_result_positions(builder, candidates))
        return _reconstruct_column(builder, statement.table, column, positions[0])

    _export(builder, statement, schema, candidate, reconstruct)
    return builder.build()


def _figure1_candidates(
    builder: ProgramBuilder, statement: SelectStatement, schema: TableSchema
) -> str:
    """Emit the candidate-list computation; returns its variable name."""
    table = statement.table
    deletions = builder.call(
        "sql", "bind_dbat", Const(SCHEMA), Const(table), Const(1), comment="deleted oids",
    )
    reversed_deletions = builder.call("bat", "reverse", builder.var(deletions))

    candidate: str | None = None
    if not statement.predicates:
        # No WHERE clause: all live oids of the table qualify.
        column = (_projected_columns(statement, schema) or schema.column_names)[0]
        base = builder.call("sql", "bind", Const(SCHEMA), Const(table), Const(column), Const(0))
        inserts = builder.call(
            "sql", "bind", Const(SCHEMA), Const(table), Const(column), Const(1)
        )
        merged = builder.call("algebra", "kunion", builder.var(base), builder.var(inserts))
        candidate = builder.call("bat", "mirror", builder.var(merged))
    for predicate in statement.predicates:
        selected = _figure1_predicate(builder, table, predicate)
        if candidate is None:
            candidate = selected
        else:
            candidate = builder.call(
                "algebra", "kintersect", builder.var(candidate), builder.var(selected)
            )
    return builder.call(
        "algebra", "kdifference", builder.var(candidate), builder.var(reversed_deletions),
        comment="drop deleted tuples",
    )


def _bind_levels(builder: ProgramBuilder, table: str, column: str) -> list[str]:
    """Bind ``table.column`` at its persistent, insert and update levels."""
    return [
        builder.call("sql", "bind", Const(SCHEMA), Const(table), Const(column), Const(level))
        for level in (0, 1, 2)
    ]


def _figure1_predicate(
    builder: ProgramBuilder, table: str, predicate: RangePredicate | ComparisonPredicate
) -> str:
    """The Figure-1 cascade for one predicate; returns the candidate variable."""
    persistent, inserts, updates = _bind_levels(builder, table, predicate.column)
    bounds = _bound_operands(predicate)

    def uselect(source: str) -> str:
        return builder.call("algebra", "uselect", builder.var(source), *bounds)

    persistent_hits = uselect(persistent)
    insert_hits = uselect(inserts)
    union = builder.call(
        "algebra", "kunion", builder.var(persistent_hits), builder.var(insert_hits)
    )
    without_updates = builder.call(
        "algebra", "kdifference", builder.var(union), builder.var(updates)
    )
    update_hits = uselect(updates)
    return builder.call(
        "algebra", "kunion", builder.var(without_updates), builder.var(update_hits)
    )


def _reconstruct_column(
    builder: ProgramBuilder, table: str, column: str, positions: str
) -> str:
    """Emit the delta merge + positional join for one projected column."""
    persistent, inserts, updates = _bind_levels(builder, table, column)
    merged = builder.call("algebra", "kunion", builder.var(persistent), builder.var(inserts))
    without_updates = builder.call(
        "algebra", "kdifference", builder.var(merged), builder.var(updates)
    )
    with_updates = builder.call(
        "algebra", "kunion", builder.var(without_updates), builder.var(updates)
    )
    return builder.call(
        "algebra", "join", builder.var(positions), builder.var(with_updates),
        comment=f"reconstruct {table}.{column}",
    )


def _result_positions(builder: ProgramBuilder, candidate: str) -> str:
    base = builder.call("calc", "oid", Const(0))
    marked = builder.call("algebra", "markT", builder.var(candidate), builder.var(base))
    return builder.call("bat", "reverse", builder.var(marked))


# -- what both programs share ------------------------------------------------------


def _bound_operands(predicate: RangePredicate | ComparisonPredicate) -> tuple[Var | Const, ...]:
    """A predicate's bounds as select operands: placeholders by reference."""
    low, high, include_low, include_high = SQLCompiler.bounds(predicate)
    return (
        *(Var(value.name) if isinstance(value, Placeholder) else Const(value)
          for value in (low, high)),
        Const(include_low),
        Const(include_high),
    )


def _projected_columns(statement: SelectStatement, schema: TableSchema) -> tuple[str, ...]:
    if statement.is_aggregate:
        return tuple(agg.column for agg in statement.aggregates if agg.column is not None)
    if statement.columns == ("*",):
        return schema.column_names
    return statement.columns


def _validate(statement: SelectStatement, schema: TableSchema) -> None:
    """Raise ``KeyError`` for an unknown column: predicates first, then projected ones."""
    for predicate in statement.predicates:
        schema.dtype_of(predicate.column)
    for column in _projected_columns(statement, schema):
        schema.dtype_of(column)


def _export(
    builder: ProgramBuilder,
    statement: SelectStatement,
    schema: TableSchema,
    candidate: str,
    gather: Callable[[str, str], str],
) -> None:
    """The result export both programs share.

    ``gather(candidates, column)`` emits one column's values at the
    candidate oids and returns its variable.  Aggregates export scalars
    (a ``LIMIT`` bounds result rows, so it never changes an aggregate's
    one row); a projection cuts the candidate list to its ``LIMIT``
    *before* gathering — MonetDB's shape — and exports a result set.
    """
    if statement.is_aggregate:
        for aggregate in statement.aggregates:
            if aggregate.column is None:
                value = builder.call("aggr", "count", builder.var(candidate))
            else:
                values = gather(candidate, aggregate.column)
                value = builder.call("aggr", aggregate.function, builder.var(values))
            builder.effect("sql", "exportValue", Const(aggregate.label), builder.var(value))
        return
    if statement.limit is not None:
        candidate = builder.call(
            "algebra", "slice", builder.var(candidate), Const(0), Const(statement.limit),
            comment=f"LIMIT {statement.limit}",
        )
    columns = _projected_columns(statement, schema)
    gathered = [gather(candidate, column) for column in columns]
    result_set = builder.call(
        "sql", "resultSet", Const(len(columns)), Const(1), builder.var(gathered[0])
    )
    for column, variable in zip(columns, gathered):
        builder.effect(
            "sql",
            "rsColumn",
            builder.var(result_set),
            Const(f"{SCHEMA}.{statement.table}"),
            Const(column),
            Const(schema.dtype_of(column).name),
            Const(0),
            Const(0),
            builder.var(variable),
        )
    builder.effect("sql", "exportResult", builder.var(result_set), Const(""))

"""SQL → MAL code generation.

The compiler emits plans with the structure of the paper's Figure 1: every
predicate column is bound at its three levels (persistent, inserts, updates)
plus the table's deletion BAT, the range selection is evaluated against each
level and combined with ``kunion``/``kdifference``, deleted oids are removed,
and the surviving candidate list drives positional joins (``markT`` +
``reverse`` + ``join``) that reconstruct the projected columns — after an
``algebra.slice`` of the candidate list when the statement carries a ``LIMIT``.
Aggregates are applied to the reconstructed column and exported as scalars
(a ``LIMIT`` bounds result rows, so it never changes an aggregate's one row).

The compiler is *naive on purpose* — exactly like the SQL compiler in the
paper — and leaves all physical decisions (segment awareness in particular)
to the tactical optimizer that runs afterwards.  That Figure-1 plan is the
text a statement is shown as (``explain``, ``PreparedPlan.text``).

What the engine runs is :meth:`SQLCompiler.lower`, emitted straight from the
statement: per predicate one select — ``bpm.take`` + ``bpm.select`` on a
BPM-managed column, ``sql.bind`` + ``algebra.uselect`` otherwise — and one
``sql.live`` step that drops tombstoned oids and appends the pending-insert
hits; ``algebra.kintersect`` between predicates, ``sql.tid`` (the table's live
oids) without one; ``algebra.slice`` for a ``LIMIT``; one
``algebra.projection`` per projected column.  Both programs share the
aggregate and result export.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.mal.builder import ProgramBuilder
from repro.mal.program import Const, MALProgram, Var
from repro.sql.ast import ComparisonPredicate, Placeholder, RangePredicate, SelectStatement
from repro.sql.parameters import parameter_names
from repro.storage.catalog import Catalog

#: Schema name used in generated ``sql.bind`` calls (MonetDB's default).
DEFAULT_SCHEMA = "sys"


class SQLCompiler:
    """Generates MAL programs from parsed SELECT statements."""

    def __init__(self, catalog: Catalog, *, schema: str = DEFAULT_SCHEMA) -> None:
        self.catalog = catalog
        self.schema = schema
        self._statement_counter = 0

    # -- public API ---------------------------------------------------------

    def compile(self, statement: SelectStatement) -> MALProgram:
        """Compile one statement into its Figure-1 MAL program.

        Placeholder bounds (a prepared statement, or literal text lifted by
        :func:`repro.sql.parameters.mask_literals`) compile into MAL variable
        references, and their names are recorded on the program as its
        parameters, to be supplied at run time.
        """
        self.catalog.schema(statement.table)  # validates the table
        self._statement_counter += 1
        builder = ProgramBuilder(
            name=f"s{self._statement_counter}_0", parameters=parameter_names(statement)
        )
        candidate = self._compile_predicates(builder, statement)
        self._validate(statement)
        positions: list[str] = []

        def reconstruct(candidates: str, column: str) -> str:
            if not positions:
                positions.append(self._result_positions(builder, candidates))
            return self._reconstruct_column(builder, statement.table, column, positions[0])

        self._export(builder, statement, candidate, reconstruct)
        return builder.build()

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
        the program (the engine passes its Figure-1 program's name).
        """
        self._validate(statement)
        table = statement.table
        builder = ProgramBuilder(name=name, parameters=parameter_names(statement))
        binds: dict[str, str] = {}

        def bind(column: str) -> str:
            if column not in binds:
                binds[column] = builder.call(
                    "sql", "bind", Const(self.schema), Const(table), Const(column), Const(0)
                )
            return binds[column]

        candidate: str | None = None
        for predicate in statement.predicates:
            column = predicate.column
            bounds = self._bound_operands(predicate)
            if is_managed(table, column):
                source = builder.call(
                    "bpm", "take", Const(self.schema), Const(table), Const(column),
                    comment=f"segment-aware sorted scan of {table}.{column}",
                )
                hits = builder.call("bpm", "select", builder.var(source), *bounds)
            else:
                source = bind(column)
                hits = builder.call("algebra", "uselect", builder.var(source), *bounds)
            live = builder.call(
                "sql", "live", builder.var(hits), builder.var(source), Const(self.schema),
                Const(table), Const(column), *bounds, comment=f"live rows of {table}.{column}",
            )
            candidate = live if candidate is None else builder.call(
                "algebra", "kintersect", builder.var(candidate), builder.var(live)
            )
        if candidate is None:
            candidate = builder.call(
                "sql", "tid", Const(self.schema), Const(table), comment=f"live rows of {table}"
            )

        def project(candidates: str, column: str) -> str:
            return builder.call(
                "algebra", "projection", builder.var(candidates), builder.var(bind(column)),
                comment=f"reconstruct {table}.{column}",
            )

        self._export(builder, statement, candidate, project)
        return builder.build()

    def _validate(self, statement: SelectStatement) -> None:
        """Raise ``KeyError`` for an unknown table or projected column."""
        schema = self.catalog.schema(statement.table)
        for column in self._projected_columns(statement):
            schema.dtype_of(column)

    # -- predicate cascade ------------------------------------------------------

    def _compile_predicates(self, builder: ProgramBuilder, statement: SelectStatement) -> str:
        """Emit the candidate-list computation; returns its variable name."""
        table = statement.table
        deletions = builder.call(
            "sql", "bind_dbat", Const(self.schema), Const(table), Const(1),
            comment="deleted oids",
        )
        reversed_deletions = builder.call("bat", "reverse", builder.var(deletions))

        candidate: str | None = None
        if not statement.predicates:
            # No WHERE clause: all live oids of the table qualify.
            base = builder.call(
                "sql", "bind", Const(self.schema), Const(table),
                Const(self._any_column(statement)), Const(0),
            )
            inserts = builder.call(
                "sql", "bind", Const(self.schema), Const(table),
                Const(self._any_column(statement)), Const(1),
            )
            merged = builder.call("algebra", "kunion", builder.var(base), builder.var(inserts))
            candidate = builder.call("bat", "mirror", builder.var(merged))
        for predicate in statement.predicates:
            selected = self._compile_single_predicate(builder, table, predicate)
            if candidate is None:
                candidate = selected
            else:
                candidate = builder.call(
                    "algebra", "kintersect", builder.var(candidate), builder.var(selected)
                )
        live = builder.call(
            "algebra", "kdifference", builder.var(candidate), builder.var(reversed_deletions),
            comment="drop deleted tuples",
        )
        return live

    def _compile_single_predicate(
        self,
        builder: ProgramBuilder,
        table: str,
        predicate: RangePredicate | ComparisonPredicate,
    ) -> str:
        """The Figure-1 cascade for one predicate; returns the candidate variable."""
        column = predicate.column
        persistent = builder.call(
            "sql", "bind", Const(self.schema), Const(table), Const(column), Const(0)
        )
        inserts = builder.call(
            "sql", "bind", Const(self.schema), Const(table), Const(column), Const(1)
        )
        updates = builder.call(
            "sql", "bind", Const(self.schema), Const(table), Const(column), Const(2)
        )
        bounds = self._bound_operands(predicate)

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

    @classmethod
    def _bound_operands(
        cls, predicate: RangePredicate | ComparisonPredicate
    ) -> tuple[Var | Const, ...]:
        """A predicate's bounds as select operands: placeholders by reference."""
        low, high, include_low, include_high = cls.bounds(predicate)
        return (
            *(Var(value.name) if isinstance(value, Placeholder) else Const(value)
              for value in (low, high)),
            Const(include_low),
            Const(include_high),
        )

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

    # -- projections ---------------------------------------------------------------

    def _projected_columns(self, statement: SelectStatement) -> tuple[str, ...]:
        if statement.is_aggregate:
            return tuple(agg.column for agg in statement.aggregates if agg.column is not None)
        if statement.columns == ("*",):
            return self.catalog.schema(statement.table).column_names
        return statement.columns

    def _any_column(self, statement: SelectStatement) -> str:
        columns = self._projected_columns(statement)
        if columns:
            return columns[0]
        return self.catalog.schema(statement.table).column_names[0]

    def _reconstruct_column(
        self, builder: ProgramBuilder, table: str, column: str, positions: str
    ) -> str:
        """Emit the delta merge + positional join for one projected column."""
        persistent = builder.call(
            "sql", "bind", Const(self.schema), Const(table), Const(column), Const(0)
        )
        inserts = builder.call(
            "sql", "bind", Const(self.schema), Const(table), Const(column), Const(1)
        )
        updates = builder.call(
            "sql", "bind", Const(self.schema), Const(table), Const(column), Const(2)
        )
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

    def _result_positions(self, builder: ProgramBuilder, candidate: str) -> str:
        base = builder.call("calc", "oid", Const(0))
        marked = builder.call("algebra", "markT", builder.var(candidate), builder.var(base))
        return builder.call("bat", "reverse", builder.var(marked))

    def _export(
        self,
        builder: ProgramBuilder,
        statement: SelectStatement,
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
        columns = self._projected_columns(statement)
        gathered = [gather(candidate, column) for column in columns]
        result_set = builder.call(
            "sql", "resultSet", Const(len(columns)), Const(1), builder.var(gathered[0])
        )
        schema = self.catalog.schema(statement.table)
        for column, variable in zip(columns, gathered):
            builder.effect(
                "sql",
                "rsColumn",
                builder.var(result_set),
                Const(f"{self.schema}.{statement.table}"),
                Const(column),
                Const(schema.dtype_of(column).name),
                Const(0),
                Const(0),
                builder.var(variable),
            )
        builder.effect("sql", "exportResult", builder.var(result_set), Const(""))

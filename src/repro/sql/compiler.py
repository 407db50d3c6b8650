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
to the tactical optimizer pipeline that runs afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.mal.builder import ProgramBuilder
from repro.mal.program import Const, MALProgram, Var
from repro.sql.ast import ComparisonPredicate, RangePredicate, SelectStatement
from repro.sql.parameters import Parameter, parameter_names
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
        """Compile one statement into a MAL program.

        Statements whose literals were lifted by
        :func:`repro.sql.parameters.parameterize` compile into parameterized
        programs: the bounds become MAL variable references and the parameter
        names are recorded on the program, to be supplied at run time.
        """
        schema = self.catalog.schema(statement.table)  # validates the table
        self._statement_counter += 1
        builder = ProgramBuilder(
            name=f"s{self._statement_counter}_0", parameters=parameter_names(statement)
        )

        candidate = self._compile_predicates(builder, statement)
        columns = self._projected_columns(statement)
        for column in columns:
            schema.dtype_of(column)  # validates projected columns

        if statement.is_aggregate:
            self._compile_aggregates(builder, statement, candidate)
        else:
            self._compile_projection(builder, statement, columns, candidate)
        return builder.build()

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
        low, high, include_low, include_high = self.bounds(predicate)

        def uselect(source: str) -> str:
            return builder.call(
                "algebra",
                "uselect",
                builder.var(source),
                self._operand(low),
                self._operand(high),
                Const(include_low),
                Const(include_high),
            )

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

    @staticmethod
    def _operand(value: float) -> Var | Const:
        """A bound as a plan operand: parameters by reference, literals baked in."""
        if isinstance(value, Parameter):
            return Var(value.name)
        return Const(value)

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
        # '<>' is compiled as the full domain; the engine filters afterwards via
        # a theta-select on the reconstructed column.  Rare enough to keep simple.
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

    def _compile_projection(
        self,
        builder: ProgramBuilder,
        statement: SelectStatement,
        columns: tuple[str, ...],
        candidate: str,
    ) -> None:
        if statement.limit is not None:
            # MonetDB's shape: cut the candidate list positionally *before*
            # the projection joins, so no column reconstructs more rows than
            # the statement returns.
            candidate = builder.call(
                "algebra", "slice", builder.var(candidate), Const(0), Const(statement.limit),
                comment=f"LIMIT {statement.limit}",
            )
        positions = self._result_positions(builder, candidate)
        reconstructed = [
            self._reconstruct_column(builder, statement.table, column, positions)
            for column in columns
        ]
        result_set = builder.call(
            "sql", "resultSet", Const(len(columns)), Const(1), builder.var(reconstructed[0])
        )
        schema = self.catalog.schema(statement.table)
        for column, variable in zip(columns, reconstructed):
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

    def _compile_aggregates(
        self, builder: ProgramBuilder, statement: SelectStatement, candidate: str
    ) -> None:
        positions: str | None = None
        for aggregate in statement.aggregates:
            if aggregate.column is None:
                value = builder.call("aggr", "count", builder.var(candidate))
            else:
                if positions is None:
                    positions = self._result_positions(builder, candidate)
                reconstructed = self._reconstruct_column(
                    builder, statement.table, aggregate.column, positions
                )
                value = builder.call("aggr", aggregate.function, builder.var(reconstructed))
            builder.effect("sql", "exportValue", Const(aggregate.label), builder.var(value))

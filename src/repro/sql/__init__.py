"""A small SQL front-end: parser and SQL-to-MAL code generator.

The reproduction supports the query shape the paper's evaluation uses —
range selections with projections or aggregates over a single table, e.g.
``SELECT objid FROM p WHERE ra BETWEEN 205.1 AND 205.12`` — and compiles it
into MAL plans with the same structure as the paper's Figure 1 (per-column
bind levels, delta unions/differences, candidate lists, positional joins).
"""

from repro.sql.ast import (
    Aggregate,
    ComparisonPredicate,
    RangePredicate,
    SelectStatement,
)
from repro.sql.parser import SQLSyntaxError, parse
from repro.sql.compiler import SQLCompiler

__all__ = [
    "Aggregate",
    "ComparisonPredicate",
    "RangePredicate",
    "SelectStatement",
    "SQLSyntaxError",
    "parse",
    "SQLCompiler",
]

"""Unit tests for the SQL-to-MAL compiler."""

import numpy as np
import pytest

from repro.engine.execution import ExecutionContext
from repro.mal.interpreter import Interpreter
from repro.mal.modules import default_registry
from repro.sql.compiler import SQLCompiler
from repro.sql.parser import parse
from repro.storage.catalog import Catalog


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.create_table("p", {"objid": np.int64, "ra": np.float64})
    store = catalog.table("p")
    store.bulk_load(
        {
            "objid": np.arange(1000, 1010, dtype=np.int64),
            "ra": np.array([200 + i * 0.01 for i in range(10)]),
        }
    )
    return catalog


@pytest.fixture
def compiler(catalog) -> SQLCompiler:
    return SQLCompiler(catalog)


def run(catalog, program):
    context = ExecutionContext(catalog=catalog)
    Interpreter(default_registry()).run(program, context)
    return context


class TestPlanShape:
    def test_figure1_pattern_present(self, compiler):
        program = compiler.compile(parse("SELECT objid FROM p WHERE ra BETWEEN 200.02 AND 200.05"))
        text = program.render()
        # The paper's Figure-1 structure: three bind levels, the deletion BAT,
        # uselect per level, kunion/kdifference, markT/reverse/join, result export.
        assert text.count("sql.bind(") >= 6  # ra and objid, three levels each
        assert "sql.bind_dbat" in text
        assert text.count("algebra.uselect") == 3
        assert "algebra.kunion" in text and "algebra.kdifference" in text
        assert "algebra.markT" in text and "bat.reverse" in text and "algebra.join" in text
        assert "sql.resultSet" in text and "sql.exportResult" in text

    def test_unknown_table_or_column_rejected(self, compiler):
        with pytest.raises(KeyError):
            compiler.compile(parse("SELECT objid FROM missing"))
        with pytest.raises(KeyError):
            compiler.compile(parse("SELECT nonexistent FROM p"))

    def test_statement_names_are_unique(self, compiler):
        first = compiler.compile(parse("SELECT objid FROM p"))
        second = compiler.compile(parse("SELECT objid FROM p"))
        assert first.name != second.name


class TestCompiledPlansExecuteCorrectly:
    def test_between_projection(self, catalog, compiler):
        program = compiler.compile(parse("SELECT objid FROM p WHERE ra BETWEEN 200.02 AND 200.05"))
        context = run(catalog, program)
        columns = context.exported_columns()
        assert columns["objid"].tolist() == [1002, 1003, 1004, 1005]

    def test_between_is_inclusive_on_both_bounds(self, catalog, compiler):
        program = compiler.compile(parse("SELECT ra FROM p WHERE ra BETWEEN 200.0 AND 200.01"))
        context = run(catalog, program)
        assert context.exported_columns()["ra"].tolist() == pytest.approx([200.0, 200.01])

    def test_comparison_predicates(self, catalog, compiler):
        program = compiler.compile(parse("SELECT objid FROM p WHERE ra >= 200.07"))
        context = run(catalog, program)
        assert context.exported_columns()["objid"].tolist() == [1007, 1008, 1009]

    def test_conjunction_intersects(self, catalog, compiler):
        program = compiler.compile(
            parse("SELECT objid FROM p WHERE ra >= 200.03 AND ra < 200.06 AND objid < 1005")
        )
        context = run(catalog, program)
        assert context.exported_columns()["objid"].tolist() == [1003, 1004]

    def test_no_where_clause_returns_all_rows(self, catalog, compiler):
        program = compiler.compile(parse("SELECT objid FROM p"))
        context = run(catalog, program)
        assert context.exported_columns()["objid"].size == 10

    def test_star_projection_returns_all_columns(self, catalog, compiler):
        program = compiler.compile(parse("SELECT * FROM p WHERE ra BETWEEN 200.0 AND 200.02"))
        context = run(catalog, program)
        columns = context.exported_columns()
        assert set(columns) == {"objid", "ra"}

    def test_aggregates(self, catalog, compiler):
        program = compiler.compile(
            parse("SELECT count(*), sum(objid), avg(ra) FROM p WHERE ra BETWEEN 200.0 AND 200.03")
        )
        context = run(catalog, program)
        assert context.scalars["count(*)"] == 4
        assert context.scalars["sum(objid)"] == float(1000 + 1001 + 1002 + 1003)
        assert context.scalars["avg(ra)"] == pytest.approx(200.015)

    def test_deleted_rows_are_excluded(self, catalog, compiler):
        catalog.table("p").delete(np.array([2, 3]))
        program = compiler.compile(parse("SELECT objid FROM p WHERE ra BETWEEN 200.0 AND 200.05"))
        context = run(catalog, program)
        assert context.exported_columns()["objid"].tolist() == [1000, 1001, 1004, 1005]

    def test_inserted_rows_are_included(self, catalog, compiler):
        catalog.table("p").insert(
            {"objid": np.array([2000], dtype=np.int64), "ra": np.array([200.021])}
        )
        program = compiler.compile(parse("SELECT objid FROM p WHERE ra BETWEEN 200.02 AND 200.03"))
        context = run(catalog, program)
        assert sorted(context.exported_columns()["objid"].tolist()) == [1002, 1003, 2000]

    def test_updated_values_are_visible(self, catalog, compiler):
        # An update is a delete plus an insert: the row keeps its objid, not its oid.
        store = catalog.table("p")
        store.delete(np.array([0]))
        store.insert({"objid": np.array([1000], dtype=np.int64), "ra": np.array([359.9])})
        program = compiler.compile(parse("SELECT objid FROM p WHERE ra BETWEEN 359.0 AND 360.0"))
        context = run(catalog, program)
        assert context.exported_columns()["objid"].tolist() == [1000]
        program = compiler.compile(parse("SELECT objid FROM p WHERE ra BETWEEN 200.0 AND 200.01"))
        assert run(catalog, program).exported_columns()["objid"].tolist() == [1001]

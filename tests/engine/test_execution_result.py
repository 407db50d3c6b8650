"""Unit tests for the execution context and query-result containers."""

import numpy as np
import pytest

from repro.engine.execution import ExecutionContext
from repro.engine.result import QueryResult
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog


@pytest.fixture
def context() -> ExecutionContext:
    catalog = Catalog()
    catalog.create_table("p", {"x": np.float64})
    return ExecutionContext(catalog=catalog)


class TestExecutionContext:
    def test_result_set_ids_are_unique(self, context):
        first = context.new_result_set()
        second = context.new_result_set()
        assert first != second

    def test_only_exported_result_set_is_returned(self, context):
        hidden = context.new_result_set()
        context.add_result_column(hidden, "x", BAT(np.array([1.0])))
        visible = context.new_result_set()
        context.add_result_column(visible, "y", BAT(np.array([2.0, 3.0])))
        context.export_result(visible)
        columns = context.exported_columns()
        assert list(columns) == ["y"]
        assert columns["y"].tolist() == [2.0, 3.0]

    def test_exported_columns_are_copies(self, context):
        result_set = context.new_result_set()
        bat = BAT(np.array([1.0, 2.0]))
        context.add_result_column(result_set, "x", bat)
        context.export_result(result_set)
        exported = context.exported_columns()["x"]
        exported[0] = 99.0
        assert bat.tail[0] == 1.0

    def test_unknown_result_set_rejected(self, context):
        with pytest.raises(KeyError):
            context.add_result_column(7, "x", BAT(np.array([1.0])))
        with pytest.raises(KeyError):
            context.export_result(7)

    def test_export_scalar_coerces_numeric_types(self, context):
        context.export_scalar("count(*)", np.float64(4))
        context.export_scalar("sum(x)", 2)
        context.export_scalar("max(x)", np.int64(9))
        context.export_scalar("min(x)", np.float32(1.5))
        context.export_scalar("flag", True)
        assert context.scalars == {
            "count(*)": 4.0,
            "sum(x)": 2.0,
            "max(x)": 9.0,
            "min(x)": 1.5,
            "flag": 1.0,
        }
        assert all(type(value) is float for value in context.scalars.values())

    def test_export_scalar_rejects_non_numeric_values(self, context):
        for bad in ("12.5", None, object(), [1.0], np.array([1.0, 2.0])):
            with pytest.raises(TypeError, match="non-numeric"):
                context.export_scalar("sum(x)", bad)
        assert context.scalars == {}

    def test_reset_clears_state_and_recycles_result_sets(self, context):
        result_set = context.new_result_set()
        container = context.result_sets[result_set]
        context.add_result_column(result_set, "x", BAT(np.array([1.0])))
        context.export_result(result_set)
        context.export_scalar("count(*)", 3)
        context.reset()
        assert context.result_sets == {} and context.scalars == {}
        assert context.exported_columns() == {}
        recycled = context.new_result_set()
        assert context.result_sets[recycled] is container  # scratch reuse
        assert context.result_sets[recycled].columns == {}
        assert not context.result_sets[recycled].exported


class TestQueryResult:
    def _result(self) -> QueryResult:
        return QueryResult(
            sql="SELECT a, b FROM t",
            columns={"a": np.array([1, 2, 3]), "b": np.array([4.0, 5.0, 6.0])},
            total_seconds=0.5,
            selection_seconds=0.2,
            adaptation_seconds=0.1,
        )

    def test_row_count_and_names(self):
        result = self._result()
        assert result.row_count == 3
        assert result.column_names == ["a", "b"]

    def test_aggregate_result_has_zero_rows(self):
        result = QueryResult(sql="SELECT count(*) FROM t", scalars={"count(*)": 9.0})
        assert result.row_count == 0
        assert result.scalar("count(*)") == 9.0

    def test_to_rows_respects_limit(self):
        result = self._result()
        assert result.to_rows(limit=2) == [(1, 4.0), (2, 5.0)]
        assert len(result.to_rows()) == 3
        assert QueryResult(sql="x").to_rows() == []

    def test_missing_column_and_scalar_errors_name_alternatives(self):
        from repro.api.exceptions import ProgrammingError

        result = self._result()
        with pytest.raises(ProgrammingError, match="available"):
            result.column("missing")
        with pytest.raises(ProgrammingError, match="available"):
            result.scalar("avg(a)")

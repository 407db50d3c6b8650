"""Unit tests for the built-in MAL module registrations (sql/aggr/algebra).

The product registry holds exactly the callees the lowering emits; the
Figure-1 plan's other callees belong to the interpreter oracle's runtime.
"""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.execution import ExecutionContext
from repro.mal.modules import default_registry
from repro.optimizer.bpm import BatPartitionManager
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog
from tests.support.figure1 import runtime


@pytest.fixture
def context() -> ExecutionContext:
    catalog = Catalog()
    catalog.create_table("p", {"objid": np.int64, "ra": np.float64})
    catalog.table("p").bulk_load(
        {"objid": np.arange(5, dtype=np.int64), "ra": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}
    )
    return ExecutionContext(catalog=catalog)


@pytest.fixture
def registry():
    return default_registry()


class TestSQLModule:
    def test_bind_levels(self, context, registry):
        bind = registry.resolve("sql.bind")
        persistent = bind(context, "sys", "p", "ra", 0)
        inserts = bind(context, "sys", "p", "ra", 1)
        assert persistent.count == 5
        assert inserts.count == 0

    def test_bind_dbat(self, context, registry):
        context.catalog.table("p").delete(np.array([1]))
        deletions = runtime(registry)["sql.bind_dbat"](context, "sys", "p", 1)
        assert deletions.count == 1

    def test_tid_is_every_live_oid_in_order(self, context, registry):
        tid = registry.resolve("sql.tid")
        assert tid(context, "sys", "p").head.tolist() == [0, 1, 2, 3, 4]
        store = context.catalog.table("p")
        store.insert({"objid": np.array([5, 6]), "ra": np.array([np.nan, 7.0])})
        store.delete(np.array([1, 6]))
        live = tid(context, "sys", "p")
        assert live.head.tolist() == live.tail.tolist() == [0, 2, 3, 4, 5]  # NaN row kept

    def test_result_set_flow(self, context, registry):
        result_set = registry.resolve("sql.resultSet")(context, 1, 1, None)
        bat = BAT(np.array([1, 2, 3]))
        registry.resolve("sql.rsColumn")(context, result_set, "sys.p", "objid", "int64", 0, 0, bat)
        registry.resolve("sql.exportResult")(context, result_set, "")
        columns = context.exported_columns()
        assert columns["objid"].tolist() == [1, 2, 3]

    def test_rs_column_on_unknown_result_set(self, context, registry):
        with pytest.raises(KeyError):
            registry.resolve("sql.rsColumn")(context, 42, "t", "c", "int64", 0, 0, BAT(np.array([1])))
        with pytest.raises(KeyError):
            registry.resolve("sql.exportResult")(context, 42, "")

    def test_export_value(self, context, registry):
        registry.resolve("sql.exportValue")(context, "count(*)", 7)
        assert context.scalars["count(*)"] == 7.0

    def test_no_exported_result_set_yields_empty_columns(self, context, registry):
        registry.resolve("sql.resultSet")(context, 1, 1, None)
        assert context.exported_columns() == {}


class TestOtherModules:
    def test_figure1_calc_and_mirror(self, context, registry):
        figure1 = runtime(registry)
        assert figure1["calc.oid"](context, 3.0) == 3
        bat = BAT(np.array([5.0, 6.0]), hseqbase=10)
        mirrored = figure1["bat.mirror"](context, bat)
        assert mirrored.head.tolist() == mirrored.tail.tolist() == [10, 11]

    def test_aggr_registrations(self, context, registry):
        bat = BAT(np.array([1.0, 3.0]))
        assert registry.resolve("aggr.sum")(context, bat) == 4.0
        assert registry.resolve("aggr.count")(context, bat) == 2
        assert registry.resolve("aggr.avg")(context, bat) == 2.0
        assert registry.resolve("aggr.min")(context, bat) == 1.0
        assert registry.resolve("aggr.max")(context, bat) == 3.0

    def test_algebra_select_flags(self, context, registry):
        bat = BAT(np.array([1.0, 2.0, 3.0]))
        select = runtime(registry)["algebra.select"]
        assert select(context, bat, 1.0, 2.0).count == 1  # default half-open
        assert select(context, bat, 1.0, 2.0, True, True).count == 2
        assert select(context, bat, 1.0, 3.0, False, False).count == 1

    def test_every_figure1_operator_runs_in_the_oracle(self, registry):
        figure1 = runtime(registry)
        for callee in (
            "algebra.select",
            "algebra.uselect",
            "algebra.kunion",
            "algebra.kdifference",
            "algebra.markT",
            "algebra.join",
            "bat.reverse",
            "calc.oid",
            "sql.bind",
            "sql.bind_dbat",
            "sql.resultSet",
            "sql.rsColumn",
            "sql.exportResult",
        ):
            assert callee in figure1 or registry.resolve(callee), callee


#: Statements whose lowerings must, together, call every product opcode:
#: one and two predicates, each comparison, no WHERE, LIMIT, each aggregate.
_CORPUS = [
    "SELECT objid FROM p WHERE {c} BETWEEN 10.0 AND 20.0",
    "SELECT objid FROM p WHERE {c} < 10.0",
    "SELECT objid FROM p WHERE {c} <= 10.0",
    "SELECT objid FROM p WHERE {c} > 10.0",
    "SELECT objid FROM p WHERE {c} >= 10.0",
    "SELECT objid FROM p WHERE {c} = 10.0",
    "SELECT objid, {c} FROM p WHERE {c} BETWEEN 10.0 AND 20.0 AND objid < 50",
    "SELECT * FROM p",
    "SELECT objid FROM p WHERE {c} >= 10.0 LIMIT 5",
    "SELECT count(*), sum({c}), avg({c}), min({c}), max({c}) FROM p WHERE {c} < 50.0",
]


class TestProductRegistry:
    def test_the_registry_is_exactly_what_the_lowering_emits(self):
        database = Database()
        database.create_table("p", {"objid": "int64", "ra": "float64", "dec": "float64"})
        rng = np.random.default_rng(3)
        database.bulk_load("p", {
            "objid": np.arange(100), "ra": rng.uniform(0, 100, 100),
            "dec": rng.uniform(0, 100, 100),
        })
        database.enable_adaptive("p", "ra", strategy="segmentation")
        emitted = {
            callee
            for column in ("ra", "dec")  # adaptive and plain
            for sql in _CORPUS
            for callee in database.prepare_statement(sql.format(c=column)).compiled.opcode_counts
        }
        bpm = BatPartitionManager(Catalog()).mal_module()
        # ModuleRegistry has no listing door: its table is read here only.
        registered = set(default_registry()._functions) | {f"bpm.{name}" for name in bpm}
        assert emitted == registered
        for sql in _CORPUS:  # the Figure-1 text still names what only the oracle runs
            text = database.explain(sql.format(c="ra")).split("# lowering")[0]
            assert "sql.bind_dbat" in text and "algebra.kdifference" in text

"""Unit tests for the generic optimizer rules and the compiler's lowering."""

import numpy as np
import pytest

from repro.engine.execution import ExecutionContext
from repro.mal.builder import ProgramBuilder
from tests.support.interpreter import Interpreter
from repro.mal.modules import default_registry
from repro.mal.program import Const, Var
from repro.optimizer.rules import merge_duplicate_binds, remove_dead_code
from repro.sql.compiler import SQLCompiler
from repro.sql.parser import parse
from repro.storage.catalog import Catalog


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.create_table("p", {"objid": np.int64, "ra": np.float64})
    catalog.table("p").bulk_load(
        {"objid": np.arange(5, dtype=np.int64), "ra": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}
    )
    return catalog


class TestRemoveDeadCode:
    def test_unused_pure_instructions_removed(self):
        builder = ProgramBuilder("demo")
        builder.call("calc", "oid", Const(1), target="dead")
        used = builder.call("calc", "oid", Const(2))
        builder.effect("sql", "exportValue", Const("x"), builder.var(used))
        optimized = remove_dead_code(builder.build())
        assert len(optimized) == 2
        assert "dead" not in [instruction.target for instruction in optimized.instructions]

    def test_dead_chains_removed_transitively(self):
        builder = ProgramBuilder("demo")
        bind = builder.call("sql", "bind", Const("sys"), Const("p"), Const("ra"), Const(0))
        builder.call("algebra", "uselect", builder.var(bind), Const(1), Const(2), target="dead")
        optimized = remove_dead_code(builder.build())
        assert len(optimized) == 0

    def test_effectful_instructions_kept(self):
        builder = ProgramBuilder("demo")
        builder.call("sql", "resultSet", Const(1), Const(1), Const(0), target="rs")
        builder.effect("sql", "exportResult", builder.var("rs"), Const(""))
        optimized = remove_dead_code(builder.build())
        assert len(optimized) == 2


class TestMergeDuplicateBinds:
    def test_duplicate_binds_collapse(self, catalog):
        compiler = SQLCompiler(catalog)
        program = compiler.compile(parse("SELECT ra FROM p WHERE ra BETWEEN 2 AND 4"))
        def binds(plan):
            return [i for i in plan.instructions if i.callee == "sql.bind"]

        before = len(binds(program))
        merged = merge_duplicate_binds(program)
        after = len(binds(merged))
        assert after < before
        # Exactly one bind per (column, level) should survive: ra has 3 levels.
        assert after == 3

    def test_merged_plan_still_produces_same_result(self, catalog):
        compiler = SQLCompiler(catalog)
        program = compiler.compile(parse("SELECT ra FROM p WHERE ra BETWEEN 2 AND 4"))
        merged = merge_duplicate_binds(program)

        def run(prog):
            context = ExecutionContext(catalog=catalog)
            Interpreter(default_registry()).run(prog, context)
            return context.exported_columns()["ra"].tolist()

        assert run(program) == run(merged)


_EXPORT_OBJID = ["sql.bind", "algebra.projection", "sql.resultSet", "sql.rsColumn",
                 "sql.exportResult"]


def _expected_callees(shape: str, organisation: str) -> list[str]:
    """The lowering's callee sequence for one statement shape (see ``_LOWERING_SHAPES``)."""
    if organisation == "adaptive":
        bind_ra, select, project_ra = [], ["bpm.take", "bpm.select", "sql.live"], ["sql.bind"]
    else:  # ra is bound once, before its first select; its projection reuses the bind
        bind_ra, select, project_ra = ["sql.bind"], ["algebra.uselect", "sql.live"], []
    return {
        "bound_range": bind_ra + select + _EXPORT_OBJID,
        "two_predicates_one_column": bind_ra + select * 2 + ["algebra.kintersect"]
        + _EXPORT_OBJID,
        "limit": bind_ra + select + ["algebra.slice"] + _EXPORT_OBJID,
        "aggregates": bind_ra + select + ["aggr.count", "sql.exportValue"] + project_ra
        + ["algebra.projection", "aggr.avg", "sql.exportValue"],
        "where_less": ["sql.tid", "aggr.count", "sql.exportValue"],
        "star": ["sql.tid"] + ["sql.bind", "algebra.projection"] * 2
        + ["sql.resultSet", "sql.rsColumn", "sql.rsColumn", "sql.exportResult"],
    }[shape]


_LOWERING_SHAPES = {
    "bound_range": "SELECT objid FROM p WHERE ra BETWEEN ? AND ?",
    "two_predicates_one_column": "SELECT objid FROM p WHERE ra >= ? AND ra < ?",
    "limit": "SELECT objid FROM p WHERE ra BETWEEN ? AND ? LIMIT 2",
    "aggregates": "SELECT count(*), avg(ra) FROM p WHERE ra < ?",
    "where_less": "SELECT count(*) FROM p",
    "star": "SELECT * FROM p",
}


class TestLowering:
    """``SQLCompiler.lower``: the program the executor runs, emitted from the statement."""

    @staticmethod
    def lower(catalog, sql: str, organisation: str = "plain"):
        compiler = SQLCompiler(catalog)
        return compiler, compiler.lower(
            parse(sql, placeholders=True),
            lambda table, column: organisation == "adaptive" and column == "ra",
            name="q",
        )

    @pytest.mark.parametrize("organisation", ["adaptive", "plain"])
    @pytest.mark.parametrize("shape", sorted(_LOWERING_SHAPES))
    def test_callee_sequence_per_shape(self, catalog, shape, organisation):
        _, lowered = self.lower(catalog, _LOWERING_SHAPES[shape], organisation)
        callees = [instruction.callee for instruction in lowered.instructions]
        assert callees == _expected_callees(shape, organisation)

    def test_the_live_step_reads_what_its_select_read(self, catalog):
        for organisation, source in (("adaptive", "bpm.take"), ("plain", "sql.bind")):
            _, lowered = self.lower(catalog, _LOWERING_SHAPES["bound_range"], organisation)
            definitions = {i.target: i for i in lowered.instructions if i.target}
            live = next(i for i in lowered.instructions if i.callee == "sql.live")
            hits, read = (definitions[arg.name] for arg in live.args[:2])
            assert hits.args[0] == live.args[1] and read.callee == source
            assert live.args[2:5] == (Const("sys"), Const("p"), Const("ra"))
            assert live.args[5:] == hits.args[1:] == (
                Var("__p0"), Var("__p1"), Const(True), Const(True)
            )
            assert lowered.parameters == ("__p0", "__p1") and lowered.name == "q"

    def test_every_column_is_bound_once(self, catalog):
        _, lowered = self.lower(
            catalog, "SELECT ra, objid, ra FROM p WHERE ra > 1 AND objid < 4 AND ra < 5"
        )
        binds = [i.args[2] for i in lowered.instructions if i.callee == "sql.bind"]
        assert binds == [Const("ra"), Const("objid")]

    def test_lowering_leaves_the_statement_counter_alone(self, catalog):
        compiler, _ = self.lower(catalog, _LOWERING_SHAPES["bound_range"])
        assert compiler.compile(parse("SELECT ra FROM p")).name == "s1_0"

    @pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "inserts-deletes"])
    def test_the_lowering_answers_like_the_figure1_plan(self, catalog, pending):
        if pending:
            store = catalog.table("p")
            store.insert({"objid": np.array([5, 6, 7]), "ra": np.array([2.5, 9.0, 3.5])})
            store.delete(np.array([1, 6, 7, 1]))
        for sql in ("SELECT objid FROM p WHERE ra BETWEEN 2 AND 4",
                    "SELECT count(*), sum(ra) FROM p WHERE objid >= 1",
                    "SELECT * FROM p WHERE ra < 4 AND objid > 0 LIMIT 2", "SELECT ra FROM p"):
            compiler, lowered = self.lower(catalog, sql)
            program = compiler.compile(parse(sql))
            outcomes = []
            for candidate in (program, lowered):
                context = ExecutionContext(catalog=catalog)
                Interpreter(default_registry()).run(candidate, context)
                columns = context.exported_columns()
                outcomes.append(({k: v.tolist() for k, v in columns.items()}, context.scalars))
            assert outcomes[0] == outcomes[1], sql

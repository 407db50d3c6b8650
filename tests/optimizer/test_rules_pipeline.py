"""Unit tests for the generic optimizer rules and the pipeline."""

import numpy as np
import pytest

from repro.engine.execution import ExecutionContext
from repro.mal.builder import ProgramBuilder
from repro.mal.interpreter import Interpreter
from repro.mal.modules import default_registry
from repro.mal.program import Const
from repro.optimizer.delta_elision import (
    collapse_iterator_block,
    elide_empty_updates,
    fuse_projection,
    insert_live_rows,
    lower_short,
)
from repro.optimizer.pipeline import OptimizerPipeline
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
        assert "dead" not in optimized.defined_variables()

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
        before = len(program.find_calls("sql", "bind"))
        merged = merge_duplicate_binds(program)
        after = len(merged.find_calls("sql", "bind"))
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


class TestDeltaElision:
    """Each rule alone on the Figure-1 plan; the composition is property-tested."""

    SQL = "SELECT objid FROM p WHERE ra BETWEEN 2 AND 4"

    @staticmethod
    def callees(program) -> list[str]:
        return [instruction.callee for instruction in program.instructions]

    def plan(self, catalog, sql=SQL):
        return merge_duplicate_binds(SQLCompiler(catalog).compile(parse(sql)))

    def test_empty_updates_alias_their_other_operand(self, catalog):
        pruned = remove_dead_code(elide_empty_updates(self.plan(catalog)))
        assert all(
            instruction.args[-1] != Const(2)
            for instruction in pruned.instructions
            if instruction.callee == "sql.bind"
        )
        callees = self.callees(pruned)
        # Inserts and deletions are not this rule's: their merges stay.
        assert callees.count("algebra.kunion") == 2 and callees.count("algebra.kdifference") == 1
        assert callees.count("algebra.uselect") == 2 and callees.count("sql.bind") == 4

    def test_an_empty_operand_something_else_reads_keeps_its_definition(self):
        builder = ProgramBuilder("demo")
        updates = builder.call("sql", "bind", Const("sys"), Const("p"), Const("ra"), Const(2))
        count = builder.call("aggr", "count", builder.var(updates))
        builder.effect("sql", "exportValue", Const("n"), builder.var(count))
        elided = lower_short(builder.build())
        assert self.callees(elided) == ["sql.bind", "aggr.count", "sql.exportValue"]

    def test_the_insert_merge_and_the_deletion_difference_become_one_live_step(self, catalog):
        program = elide_empty_updates(self.plan(catalog))
        callees = self.callees(remove_dead_code(insert_live_rows(program)))
        assert callees.count("sql.live") == 1
        assert "algebra.kdifference" not in callees and "sql.bind_dbat" not in callees
        assert callees.count("algebra.kunion") == 1  # the projected column's merge
        step = next(i for i in insert_live_rows(program).instructions if i.callee == "sql.live")
        assert step.args[2:5] == (Const("sys"), Const("p"), Const("ra"))
        assert step.args[5:] == (Const(2.0), Const(4.0), Const(True), Const(True))

    def test_a_merge_over_other_bounds_keeps_the_cascade(self):
        builder = ProgramBuilder("demo")
        bind = [
            builder.call("sql", "bind", Const("sys"), Const("p"), Const("ra"), Const(level))
            for level in (0, 1)
        ]
        hits = [
            builder.call("algebra", "uselect", builder.var(source), Const(1.0), Const(high))
            for source, high in zip(bind, (2.0, 3.0))
        ]
        builder.call("algebra", "kunion", *(builder.var(hit) for hit in hits), target="out")
        program = builder.build()
        assert self.callees(insert_live_rows(program)) == self.callees(program)

    def test_projection_fuses_only_over_the_persistent_and_insert_merge(self, catalog):
        program = self.plan(catalog)
        assert self.callees(fuse_projection(program)) == self.callees(program)  # col has updates
        fused = remove_dead_code(fuse_projection(elide_empty_updates(program)))
        callees = self.callees(fused)
        assert "algebra.projection" in callees
        assert not {"calc.oid", "algebra.markT", "algebra.join"} & set(callees)

    def test_only_the_exact_iterator_block_collapses(self):
        def block(inner_high):
            builder = ProgramBuilder("demo")
            handle = builder.call("bpm", "take", Const("sys"), Const("p"), Const("ra"))
            accumulator = builder.call("bpm", "new")
            bounds = (Const(1.0), Const(2.0), Const(True), Const(True))
            piece = builder.barrier("bpm", "newIterator", builder.var(handle), *bounds)
            hits = builder.call(
                "algebra", "select", builder.var(piece), Const(1.0), Const(inner_high),
                Const(True), Const(True),
            )
            builder.effect("bpm", "addSegment", builder.var(accumulator), builder.var(hits))
            builder.redo(piece, "bpm", "hasMoreElements", builder.var(handle), *bounds)
            builder.exit(piece)
            builder.call("bpm", "result", builder.var(accumulator), target="out")
            return builder.build()

        collapsed = collapse_iterator_block(block(2.0))
        assert self.callees(collapsed) == ["bpm.take", "bpm.select"]
        assert collapsed.instructions[1].targets == ("out",)
        assert collapsed.instructions[1].args == block(2.0).instructions[2].args
        # An inner select over other bounds is not the identity: left alone.
        assert self.callees(collapse_iterator_block(block(1.5))) == self.callees(block(1.5))

    @pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "inserts-deletes"])
    def test_the_short_lowering_answers_like_the_full_plan(self, catalog, pending):
        if pending:
            store = catalog.table("p")
            store.insert({"objid": np.array([5, 6, 7]), "ra": np.array([2.5, 9.0, 3.5])})
            store.delete(np.array([1, 6, 7, 1]))
        for sql in (self.SQL, "SELECT count(*), sum(ra) FROM p WHERE objid >= 1",
                    "SELECT * FROM p WHERE ra < 4 AND objid > 0 LIMIT 2", "SELECT ra FROM p"):
            program = self.plan(catalog, sql)
            lowered = lower_short(program)
            assert len(lowered) < len(program)
            # Only the Figure-1 plan unions hits: kunion's hashing fall-through is the oracle's.
            definitions = {i.target: i for i in lowered.instructions if i.target is not None}
            assert all(
                [definitions[arg.name].callee for arg in instruction.args] == ["sql.bind"] * 2
                for instruction in lowered.instructions
                if instruction.callee == "algebra.kunion"
            ), sql
            outcomes = []
            for candidate in (program, lowered):
                context = ExecutionContext(catalog=catalog)
                Interpreter(default_registry()).run(candidate, context)
                columns = context.exported_columns()
                outcomes.append(({k: v.tolist() for k, v in columns.items()}, context.scalars))
            assert outcomes[0] == outcomes[1], sql


class TestPipeline:
    def test_rules_applied_in_order(self):
        calls = []

        def rule_a(program):
            calls.append("a")
            return program

        def rule_b(program):
            calls.append("b")
            return program

        pipeline = OptimizerPipeline([rule_a, rule_b])
        pipeline.optimize(ProgramBuilder("x").build())
        assert calls == ["a", "b"]

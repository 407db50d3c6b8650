"""Unit tests for the MAL program representation and the builder."""

import pytest

from repro.mal.builder import ProgramBuilder
from repro.mal.program import Const, Instruction, MALProgram, Var
from tests.support.figure1 import BlockBuilder


class TestInstruction:
    def test_render_assignment(self):
        instruction = Instruction(
            opcode="assign",
            targets=("X1",),
            module="algebra",
            function="select",
            args=(Var("X0"), Const(10), Const(20)),
        )
        assert instruction.render() == "X1 := algebra.select(X0, 10, 20);"

    def test_render_barrier_and_exit(self):
        barrier = Instruction(
            opcode="barrier", targets=("rseg",), module="bpm", function="newIterator", args=(Var("Y"),)
        )
        assert barrier.render().startswith("barrier rseg := bpm.newIterator")
        assert Instruction(opcode="exit", targets=("rseg",)).render() == "exit rseg;"

    def test_render_string_constants_quoted(self):
        instruction = Instruction(
            opcode="assign", targets=("X",), module="sql", function="bind", args=(Const("sys"),)
        )
        assert '"sys"' in instruction.render()

    def test_invalid_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instruction(opcode="jump", targets=("X",), module="m", function="f")

    def test_assign_requires_function(self):
        with pytest.raises(ValueError):
            Instruction(opcode="assign", targets=("X",))

    def test_argument_names(self):
        instruction = Instruction(
            opcode="assign",
            targets=("X2",),
            module="algebra",
            function="join",
            args=(Var("A"), Const(1), Var("B")),
        )
        assert instruction.argument_names() == ["A", "B"]


class TestMALProgram:
    def _program(self) -> MALProgram:
        builder = ProgramBuilder("demo")
        bound = builder.call("sql", "bind", Const("sys"), Const("p"), Const("ra"), Const(0))
        builder.call("algebra", "select", builder.var(bound), Const(1), Const(2))
        return builder.build()

    def test_render_has_function_wrapper(self):
        text = self._program().render()
        assert text.startswith("function user.demo(")
        assert text.endswith("end demo;")
        assert "sql.bind" in text


class TestProgramBuilder:
    def test_fresh_names_are_unique(self):
        builder = ProgramBuilder("p")
        names = {builder.fresh() for _ in range(10)}
        assert len(names) == 10

    def test_effect_calls_have_no_target(self):
        builder = ProgramBuilder("p")
        builder.effect("sql", "exportResult", Const(1))
        assert builder.build().instructions[0].targets == ()

    def test_barrier_block_construction(self):
        builder = BlockBuilder("p")
        handle = builder.call("bpm", "take", Const("sys"), Const("p"), Const("ra"))
        barrier = builder.barrier("bpm", "newIterator", builder.var(handle), Const(0), Const(1))
        builder.redo(barrier, "bpm", "hasMoreElements", builder.var(handle), Const(0), Const(1))
        builder.exit(barrier)
        opcodes = [instruction.opcode for instruction in builder.build().instructions]
        assert opcodes == ["assign", "barrier", "redo", "exit"]

    def test_plain_python_values_wrap_as_constants(self):
        builder = ProgramBuilder("p")
        builder.call("calc", "oid", 7)
        assert builder.build().instructions[0].args == (Const(7),)

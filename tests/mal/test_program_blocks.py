"""Tests for the barrier/redo/exit block structure the interpreter oracle runs."""

import pytest

from repro.mal.program import Const, Instruction, MALProgram, MALRuntimeError
from tests.support.figure1 import BlockBuilder, match_blocks


def loop_program() -> MALProgram:
    builder = BlockBuilder("loop")
    barrier = builder.barrier("iter", "new", target="item")
    builder.effect("iter", "collect", builder.var("item"))
    builder.redo(barrier, "iter", "next")
    builder.exit(barrier)
    return builder.build()


class TestMatchBlocks:
    def test_blocks_map_barrier_and_redo_to_bounds(self):
        program = loop_program()
        assert match_blocks(program.instructions) == {0: (0, 3), 2: (0, 3)}
        program.extend([
            Instruction(opcode="barrier", targets=("b",), module="iter", function="new", args=()),
            Instruction(opcode="exit", targets=("b",)),
        ])
        assert match_blocks(program.instructions)[4] == (4, 5)


class TestMatchBlocksValidation:
    def test_unmatched_barrier_rejected(self):
        program = MALProgram("bad")
        program.append(
            Instruction(opcode="barrier", targets=("x",), module="calc",
                        function="const", args=(Const(1),))
        )
        with pytest.raises(MALRuntimeError, match="without exit"):
            match_blocks(program.instructions)

    def test_exit_without_barrier_rejected(self):
        with pytest.raises(MALRuntimeError, match="without a matching barrier"):
            match_blocks([*loop_program().instructions, Instruction(opcode="exit", targets=("z",))])

    def test_redo_outside_block_rejected(self):
        with pytest.raises(MALRuntimeError, match="outside"):
            match_blocks([
                Instruction(opcode="redo", targets=("x",), module="calc",
                            function="const", args=(Const(1),))
            ])

    def test_nested_barrier_on_same_variable_rejected(self):
        barrier = Instruction(opcode="barrier", targets=("x",), module="calc",
                              function="const", args=(Const(1),))
        with pytest.raises(MALRuntimeError, match="nested"):
            match_blocks([barrier, barrier])

"""Unit tests for the MAL interpreter, including barrier blocks."""

import pytest

from repro.mal.builder import ProgramBuilder
from tests.support.figure1 import BlockBuilder
from tests.support.interpreter import Interpreter, MALRuntimeError
from repro.mal.modules import ModuleRegistry
from repro.mal.program import Const, Instruction, MALProgram, Var


class _Context:
    """A minimal execution context for interpreter tests."""

    variables: dict = {}


def make_registry() -> ModuleRegistry:
    registry = ModuleRegistry()
    registry.register("calc", "add", lambda ctx, a, b: a + b)
    registry.register("calc", "const", lambda ctx, a: a)
    return registry


class TestBasicExecution:
    def test_assignment_chain(self):
        builder = ProgramBuilder("demo")
        first = builder.call("calc", "const", Const(5))
        builder.call("calc", "add", builder.var(first), Const(3), target="result")
        env = Interpreter(make_registry()).run(builder.build(), _Context())
        assert env["result"] == 8

    def test_arguments_passed_at_run_time(self):
        builder = ProgramBuilder("demo")
        builder.call("calc", "add", Var("A0"), Var("A1"), target="out")
        env = Interpreter(make_registry()).run(builder.build(), _Context(), {"A0": 2, "A1": 40})
        assert env["out"] == 42

    def test_undefined_variable_raises(self):
        builder = ProgramBuilder("demo")
        builder.call("calc", "const", Var("missing"))
        with pytest.raises(MALRuntimeError, match="undefined"):
            Interpreter(make_registry()).run(builder.build(), _Context())

    def test_unknown_function_raises(self):
        builder = ProgramBuilder("demo")
        builder.call("calc", "nonexistent", Const(1))
        with pytest.raises(MALRuntimeError, match="no MAL implementation"):
            Interpreter(make_registry()).run(builder.build(), _Context())


class TestBarrierBlocks:
    def _looping_registry(self, items: list) -> ModuleRegistry:
        registry = make_registry()
        state = {"position": 0}

        def new_iterator(ctx, *args):
            state["position"] = 0
            return self_next(ctx)

        def self_next(ctx, *args):
            if state["position"] >= len(items):
                return None
            item = items[state["position"]]
            state["position"] += 1
            return item

        sink: list = []
        registry.register("iter", "new", new_iterator)
        registry.register("iter", "next", self_next)
        registry.register("iter", "collect", lambda ctx, value: sink.append(value))
        registry.register("iter", "sink", lambda ctx: sink)
        return registry

    def _loop_program(self) -> MALProgram:
        builder = BlockBuilder("loop")
        barrier = builder.barrier("iter", "new", target="item")
        builder.effect("iter", "collect", Var("item"))
        builder.redo(barrier, "iter", "next")
        builder.exit(barrier)
        builder.call("iter", "sink", target="all")
        return builder.build()

    def test_loop_visits_every_item(self):
        registry = self._looping_registry([10, 20, 30])
        env = Interpreter(registry).run(self._loop_program(), _Context())
        assert env["all"] == [10, 20, 30]

    def test_empty_iterator_skips_block(self):
        registry = self._looping_registry([])
        env = Interpreter(registry).run(self._loop_program(), _Context())
        assert env["all"] == []

    def test_runaway_loop_is_stopped(self):
        registry = make_registry()
        registry.register("iter", "new", lambda ctx: 1)
        registry.register("iter", "next", lambda ctx: 1)  # never returns None
        builder = BlockBuilder("forever")
        barrier = builder.barrier("iter", "new", target="item")
        builder.redo(barrier, "iter", "next")
        builder.exit(barrier)
        interpreter = Interpreter(registry, max_steps=1000)
        with pytest.raises(MALRuntimeError, match="exceeded"):
            interpreter.run(builder.build(), _Context())

    def test_unmatched_barrier_rejected(self):
        program = MALProgram("bad")
        program.append(
            Instruction(opcode="barrier", targets=("x",), module="calc", function="const", args=(Const(1),))
        )
        with pytest.raises(MALRuntimeError, match="without exit"):
            Interpreter(make_registry()).run(program, _Context())

    def test_redo_outside_block_rejected(self):
        program = MALProgram("bad")
        program.append(
            Instruction(opcode="redo", targets=("x",), module="calc", function="const", args=(Const(1),))
        )
        with pytest.raises(MALRuntimeError, match="outside"):
            Interpreter(make_registry()).run(program, _Context())


class TestModuleRegistry:
    def test_register_and_resolve(self):
        registry = make_registry()
        assert registry.resolve("calc.add")(None, 2, 3) == 5
        registry.register("calc", "add", lambda ctx, a, b: a - b)  # overrides
        assert registry.resolve("calc.add")(None, 2, 3) == -1
        with pytest.raises(KeyError, match="no MAL implementation"):
            registry.resolve("calc.mul")

"""Unit tests for slot-based compiled MAL plans."""

import pytest

from repro.mal.builder import ProgramBuilder
from repro.mal.compiled import CompiledPlan, compile_program
from tests.support.interpreter import Interpreter, MALRuntimeError
from repro.mal.modules import ModuleRegistry
from repro.mal.program import Const, Instruction, MALProgram, Var


class _Context:
    variables: dict = {}


def make_registry() -> ModuleRegistry:
    registry = ModuleRegistry()
    registry.register("calc", "add", lambda ctx, a, b: a + b)
    registry.register("calc", "const", lambda ctx, a: a)
    registry.register("calc", "pair", lambda ctx, a, b: (b, a))
    return registry


def make_loop_registry(items: list) -> tuple[ModuleRegistry, list]:
    registry = make_registry()
    state = {"position": 0}
    sink: list = []

    def new_iterator(ctx, *args):
        state["position"] = 0
        return next_item(ctx)

    def next_item(ctx, *args):
        if state["position"] >= len(items):
            return None
        item = items[state["position"]]
        state["position"] += 1
        return item

    registry.register("iter", "new", new_iterator)
    registry.register("iter", "next", next_item)
    registry.register("iter", "collect", lambda ctx, value: sink.append(value))
    registry.register("iter", "sink", lambda ctx: list(sink))
    return registry, sink


def loop_program() -> MALProgram:
    builder = ProgramBuilder("loop")
    barrier = builder.barrier("iter", "new", target="item")
    builder.effect("iter", "collect", Var("item"))
    builder.redo(barrier, "iter", "next")
    builder.exit(barrier)
    builder.call("iter", "sink", target="all")
    return builder.build()


class TestStraightLine:
    def test_assignment_chain(self):
        builder = ProgramBuilder("demo")
        first = builder.call("calc", "const", Const(5))
        builder.call("calc", "add", builder.var(first), Const(3), target="result")
        plan = compile_program(builder.build(), make_registry())
        assert isinstance(plan, CompiledPlan)
        env = plan.run(_Context())
        assert env["result"] == 8

    def test_arguments_seed_parameter_slots(self):
        builder = ProgramBuilder("demo", parameters=("A0", "A1"))
        builder.call("calc", "add", Var("A0"), Var("A1"), target="out")
        plan = compile_program(builder.build(), make_registry())
        env = plan.run(_Context(), {"A0": 2, "A1": 40})
        assert env["out"] == 42
        assert env["A0"] == 2  # arguments appear in the environment, like the interpreter

    def test_unknown_argument_names_are_ignored(self):
        builder = ProgramBuilder("demo")
        builder.call("calc", "const", Const(1), target="out")
        plan = compile_program(builder.build(), make_registry())
        env = plan.run(_Context(), {"unused": 99})
        assert env["out"] == 1
        assert env["unused"] == 99  # interpreter parity: arguments pass through

    def test_multi_target_binding(self):
        program = MALProgram("multi")
        program.append(
            Instruction(
                opcode="assign",
                targets=("a", "b"),
                module="calc",
                function="pair",
                args=(Const(1), Const(2)),
            )
        )
        with pytest.raises(MALRuntimeError, match="not straight-line"):
            compile_program(program, make_registry())
        env = Interpreter(make_registry()).run(program, _Context())  # where it runs
        assert (env["a"], env["b"]) == (2, 1)

    def test_calls_with_no_one_or_many_arguments(self):
        registry = make_registry()
        registry.register("calc", "zero", lambda ctx: 0)
        builder = ProgramBuilder("arity", parameters=("A0",))
        zero = builder.call("calc", "zero")
        one = builder.call("calc", "const", Var("A0"))
        builder.call("calc", "add", builder.var(zero), builder.var(one), target="out")
        env = compile_program(builder.build(), registry).run(_Context(), {"A0": 7})
        assert env["out"] == 7

    def test_undefined_variable_raises(self):
        builder = ProgramBuilder("demo")
        builder.call("calc", "const", Var("missing"))
        plan = compile_program(builder.build(), make_registry())
        with pytest.raises(MALRuntimeError, match="undefined"):
            plan.run(_Context())

    def test_unknown_function_raises_at_compile_time(self):
        builder = ProgramBuilder("demo")
        builder.call("calc", "nonexistent", Const(1))
        with pytest.raises(MALRuntimeError, match="no MAL implementation"):
            compile_program(builder.build(), make_registry())


class TestBarrierBlocks:
    """Guarded blocks run in the interpreter (``tests/mal/test_interpreter.py``)."""

    def test_the_product_compiler_rejects_guarded_blocks(self):
        registry, _ = make_loop_registry([1])
        with pytest.raises(MALRuntimeError, match="not straight-line"):
            compile_program(loop_program(), registry)


class TestOpcodeCounters:
    def test_straight_line_counts_every_instruction_once(self):
        builder = ProgramBuilder("demo")
        first = builder.call("calc", "const", Const(5))
        builder.call("calc", "add", builder.var(first), Const(3))
        plan = compile_program(builder.build(), make_registry())
        plan.run(_Context())
        assert plan.opcode_counts == {"calc.const": 1, "calc.add": 1}


class TestSlots:
    def test_slot_interning_covers_parameters_and_targets(self):
        builder = ProgramBuilder("demo", parameters=("p0",))
        builder.call("calc", "add", Var("p0"), Const(1), target="out")
        plan = compile_program(builder.build(), make_registry())
        assert plan.parameter_slots(("p0", "out")) == (0, 1)
        with pytest.raises(KeyError):
            plan.parameter_slots(("nope",))


class TestBoundExecution:
    def _plan(self) -> CompiledPlan:
        builder = ProgramBuilder("bound", parameters=("__p0", "__p1"))
        builder.call("calc", "add", Var("__p0"), Var("__p1"), target="out")
        return compile_program(builder.build(), make_registry())

    def test_parameter_slots_default_to_declared_parameters(self):
        plan = self._plan()
        assert plan.parameter_slots() == plan.parameter_slots(("__p0", "__p1")) == (0, 1)
        assert plan.parameter_slots(("__p1",)) == (1,)
        with pytest.raises(KeyError):
            plan.parameter_slots(("missing",))

    def test_execute_bound_matches_execute(self):
        plan = self._plan()
        slots = plan.parameter_slots()
        by_name = plan.run(_Context(), {"__p0": 2.0, "__p1": 3.0})
        by_slot = plan.execute_bound(_Context(), slots, (2.0, 3.0))
        assert by_slot == [by_name[name] for name in ("__p0", "__p1", "out")]
        assert by_slot[plan.parameter_slots(("out",))[0]] == 5.0

    def test_execute_bound_counts_instructions(self):
        plan = self._plan()
        plan.execute_bound(_Context(), plan.parameter_slots(), (1.0, 1.0))
        assert plan.opcode_counts == {"calc.add": 1}

    def test_missing_binding_raises_undefined_variable(self):
        plan = self._plan()
        with pytest.raises(MALRuntimeError, match="__p1"):
            plan.execute_bound(_Context(), plan.parameter_slots(("__p0",)), (1.0,))

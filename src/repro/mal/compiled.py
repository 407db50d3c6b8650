"""Slot-based compiled MAL plans: the engine's execution path.

The engine runs one kind of program: the lowering of an optimized plan
(:mod:`repro.optimizer.delta_elision`), a straight line of calls in which
every instruction runs exactly once, in order.  The tree-walking
:class:`~repro.mal.interpreter.Interpreter` would pay, on every instruction of
every run, for a registry lookup of the callee, a dict lookup per variable
argument and a dict store per target.  None of that work depends on the
query's parameters, so :func:`compile_program` performs it exactly once:

* callees are pre-resolved to their bound Python callables;
* variable names are interned to integer slots in a flat environment list,
  and every constant argument gets a slot of its own, filled once;
* each instruction's arguments become one ``operator.itemgetter`` over the
  environment, which gathers them in a single C call.

Executing the resulting :class:`CompiledPlan` costs per instruction one
gather and the call — no name resolution, no argument patching, no program
counter, no per-instruction counters: since every step runs once, how often
each callee runs is a property of the plan
(:attr:`CompiledPlan.opcode_counts`).  Guarded
blocks (``barrier`` / ``redo`` / ``exit``) and multi-target assignments occur
only in the paper's Figure-1 plan, which the interpreter runs;
:func:`compile_program` rejects them.  The lowering answers exactly what the
interpreter answers for the Figure-1 plan (property-tested).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.mal.modules import ModuleRegistry
from repro.mal.program import OPCODE_ASSIGN, Const, MALProgram, MALRuntimeError, Var

#: Sentinel marking an environment slot that has not been assigned yet.
_UNSET = object()


class CompiledPlan:
    """An executable lowering of one straight-line MAL program.

    Instances are immutable once built and hold no per-query state, so one
    compiled plan can be re-run concurrently against different execution
    contexts — the engine caches them per statement and binds the parameters
    at call time through :meth:`execute_bound`.
    """

    __slots__ = (
        "name", "parameters", "opcode_counts", "_steps", "_slots", "_names", "_inputs",
        "_environment",
    )

    def __init__(
        self,
        name: str,
        parameters: tuple[str, ...],
        steps: list[tuple],
        slots: dict[str, int],
        callees: list[str],
        inputs: tuple[int, ...],
        constants: list[Any],
    ) -> None:
        self.name = name
        self.parameters = parameters
        self._steps = steps
        self._slots = slots
        #: The slots some step reads before any step writes them, in first-read
        #: order: the only ones a run can find unset.
        self._inputs = inputs
        #: A run's starting environment: every variable unset, then the constants.
        self._environment = [_UNSET] * len(slots) + constants
        self._names = [name for name, _ in sorted(slots.items(), key=lambda item: item[1])]
        #: Executions per callee (``module.function``) of one run.
        self.opcode_counts: dict[str, int] = {}
        for callee in callees:
            self.opcode_counts[callee] = self.opcode_counts.get(callee, 0) + 1

    def parameter_slots(self, names: tuple[str, ...] | None = None) -> tuple[int, ...]:
        """The environment slots of the given parameter names, in order.

        Defaults to the plan's own declared ``parameters``.  This is the slot
        template a prepared statement resolves *once*: each execution then
        seeds the environment through :meth:`execute_bound` with no name
        resolution at all.
        """
        if names is None:
            names = self.parameters
        return tuple(self._slots[name] for name in names)

    # -- execution ----------------------------------------------------------

    def execute_bound(
        self, context: Any, slots: tuple[int, ...], values: tuple[Any, ...]
    ) -> list[Any]:
        """Run the plan seeding ``env[slots[i]] = values[i]``; the final environment.

        ``slots`` comes from :meth:`parameter_slots` (resolved at prepare
        time), so binding a query costs one list write per parameter.  The
        environment lists the variables' slots, then the plan's constants.
        """
        env = self._environment.copy()
        for index, value in zip(slots, values):
            env[index] = value
        for slot in self._inputs:
            if env[slot] is _UNSET:
                raise MALRuntimeError(
                    f"{self.name!r} references undefined variable {self._names[slot]!r}"
                )
        for func, arguments, target in self._steps:
            value = func(context, *arguments(env))
            if target is not None:
                env[target] = value
        return env

    def run(self, context: Any, arguments: dict[str, Any] | None = None) -> dict[str, Any]:
        """Execute with named arguments; the final variable environment as a dict.

        Same contract as :meth:`repro.mal.interpreter.Interpreter.run` (names
        without a slot pass through untouched) — used by the parity tests; the
        engine calls :meth:`execute_bound`.
        """
        variables: dict[str, Any] = dict(arguments or {})
        names = tuple(name for name in variables if name in self._slots)
        env = self.execute_bound(
            context, self.parameter_slots(names), tuple(variables[name] for name in names)
        )
        for name, value in zip(self._names, env):
            if value is not _UNSET:
                variables[name] = value
        return variables


def compile_program(program: MALProgram, registry: ModuleRegistry) -> CompiledPlan:
    """Lower the straight-line ``program`` into a :class:`CompiledPlan` against ``registry``.

    Unknown callees raise :class:`MALRuntimeError` at compile time (the
    interpreter would raise the same error at the first execution), as do
    guarded blocks and multi-target assignments (the interpreter runs those).
    """
    # Variables take the first slots, in order of appearance; each constant
    # argument gets one after them.
    slots: dict[str, int] = {}
    for parameter in program.parameters:
        slots.setdefault(parameter, len(slots))
    for instruction in program.instructions:
        for argument in instruction.args:
            if isinstance(argument, Var):
                slots.setdefault(argument.name, len(slots))
        for target in instruction.targets:
            slots.setdefault(target, len(slots))
    constants: list[Any] = []
    steps: list[tuple] = []
    callees: list[str] = []
    written: set[int] = set()
    inputs: dict[int, None] = {}  # ordered set
    for instruction in program.instructions:
        if instruction.opcode != OPCODE_ASSIGN or len(instruction.targets) > 1:
            raise MALRuntimeError(
                f"{program.name!r} is not straight-line: {instruction.opcode} "
                f"{instruction.callee} (run guarded blocks in the interpreter)"
            )
        try:
            func = registry.resolve(instruction.callee)
        except KeyError as exc:
            raise MALRuntimeError(str(exc)) from exc
        positions: list[int] = []
        for argument in instruction.args:
            if isinstance(argument, Var):
                slot = slots[argument.name]
                if slot not in written:
                    inputs[slot] = None
            else:
                slot = len(slots) + len(constants)
                constants.append(argument.value if isinstance(argument, Const) else argument)
            positions.append(slot)
        target = slots[instruction.targets[0]] if instruction.targets else None
        if target is not None:
            written.add(target)
        steps.append((func, _gatherer(positions), target))
        callees.append(instruction.callee)
    return CompiledPlan(
        program.name, program.parameters, steps, slots, callees, tuple(inputs), constants
    )


def _gatherer(positions: list[int]) -> Any:
    """One C call that returns the environment entries at ``positions``, in order.

    ``itemgetter`` of several indices returns a tuple; of fewer, a slice keeps
    the result a sequence (a lone index would return the bare entry).
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(slice(0, 0))

"""The MAL interpreter: the oracle the compiled plans are held against.

Executes a :class:`~repro.mal.program.MALProgram` against a module registry
and an execution context.  Supports the barrier/redo/exit guarded blocks used
by the segment optimizer's iterator rewrite (§3.1): a ``barrier`` whose call
returns ``None`` skips its block entirely, a ``redo`` whose call returns a
value loops back to the top of the block.  The engine runs only the
straight-line lowering (:mod:`repro.mal.compiled`); this runs the paper's
Figure-1 plan in the parity tests.  A callee the registry does not know is
looked up in Figure 1's runtime (:mod:`tests.support.figure1`), so any
product registry runs the full plan.
"""

from __future__ import annotations

from typing import Any

from repro.mal.modules import ModuleRegistry
from repro.mal.program import (
    OPCODE_ASSIGN,
    OPCODE_BARRIER,
    OPCODE_EXIT,
    OPCODE_REDO,
    Const,
    Instruction,
    MALProgram,
    MALRuntimeError,
    Var,
)
from tests.support.figure1 import match_blocks, runtime

__all__ = ["Interpreter", "MALRuntimeError"]


class Interpreter:
    """Evaluates MAL programs instruction by instruction."""

    def __init__(self, registry: ModuleRegistry, *, max_steps: int = 10_000_000) -> None:
        self.registry = registry
        self.max_steps = int(max_steps)
        self._figure1 = runtime(registry)

    # -- public API ---------------------------------------------------------

    def run(
        self,
        program: MALProgram,
        context: Any,
        arguments: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Execute the program; returns the final variable environment."""
        variables: dict[str, Any] = dict(arguments or {})
        blocks = match_blocks(program.instructions)
        pc = 0
        steps = 0
        instructions = program.instructions
        while pc < len(instructions):
            steps += 1
            if steps > self.max_steps:
                raise MALRuntimeError(
                    f"program {program.name!r} exceeded {self.max_steps} steps; "
                    "likely a non-terminating barrier block"
                )
            instruction = instructions[pc]
            if instruction.opcode == OPCODE_ASSIGN:
                value = self._invoke(instruction, variables, context)
                self._bind(instruction, value, variables)
                pc += 1
            elif instruction.opcode == OPCODE_BARRIER:
                value = self._invoke(instruction, variables, context)
                if value is None:
                    pc = blocks[pc][1] + 1  # skip past the matching exit
                else:
                    self._bind(instruction, value, variables)
                    pc += 1
            elif instruction.opcode == OPCODE_REDO:
                value = self._invoke(instruction, variables, context)
                if value is None:
                    pc += 1  # falls through to the exit
                else:
                    self._bind(instruction, value, variables)
                    pc = blocks[pc][0] + 1  # back to the top of the block
            elif instruction.opcode == OPCODE_EXIT:
                pc += 1
            else:  # pragma: no cover - guarded by Instruction validation
                raise MALRuntimeError(f"unknown opcode {instruction.opcode!r}")
        return variables

    # -- internals ---------------------------------------------------------------

    def _invoke(self, instruction: Instruction, variables: dict[str, Any], context: Any) -> Any:
        try:
            implementation = self.registry.resolve(instruction.callee)
        except KeyError as exc:
            implementation = self._figure1.get(instruction.callee)
            if implementation is None:
                raise MALRuntimeError(str(exc)) from exc
        args = [self._evaluate(arg, variables, instruction) for arg in instruction.args]
        return implementation(context, *args)

    @staticmethod
    def _evaluate(argument: Any, variables: dict[str, Any], instruction: Instruction) -> Any:
        if isinstance(argument, Var):
            if argument.name not in variables:
                raise MALRuntimeError(
                    f"instruction {instruction.render()!r} references undefined "
                    f"variable {argument.name!r}"
                )
            return variables[argument.name]
        if isinstance(argument, Const):
            return argument.value
        return argument

    @staticmethod
    def _bind(instruction: Instruction, value: Any, variables: dict[str, Any]) -> None:
        if not instruction.targets:
            return
        if len(instruction.targets) == 1:
            variables[instruction.targets[0]] = value
            return
        values = value if isinstance(value, (tuple, list)) else (value,)
        if len(values) != len(instruction.targets):
            raise MALRuntimeError(
                f"instruction {instruction.render()!r} returned {len(values)} values "
                f"for {len(instruction.targets)} targets"
            )
        for target, item in zip(instruction.targets, values):
            variables[target] = item

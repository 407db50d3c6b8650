"""MAL program representation.

A MAL program is a flat list of instructions.  Each instruction calls a
``module.function`` with a mix of variable references and constants and binds
the result to target variables.  Control flow is expressed with
barrier/redo/exit blocks named after their barrier variable, exactly like the
iterator snippet of §3.1:

.. code-block:: text

    barrier rseg := bpm.newIterator(Y1, A0, A1);
    T1 := algebra.select(rseg, A0, A1);
    bpm.addSegment(Y2, T1);
    redo rseg := bpm.hasMoreElements(Y1, A0, A1);
    exit rseg;

Only the Figure-1 plan carries such blocks: the lowering the engine runs is a
straight line, and the blocks run in the test suite's interpreter oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass(frozen=True)
class Var:
    """A reference to a MAL variable by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal argument embedded in an instruction."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return repr(self.value)


#: Instruction opcodes: plain assignments plus the barrier-block control flow.
OPCODE_ASSIGN = "assign"
OPCODE_BARRIER = "barrier"
OPCODE_REDO = "redo"
OPCODE_EXIT = "exit"

_OPCODES = {OPCODE_ASSIGN, OPCODE_BARRIER, OPCODE_REDO, OPCODE_EXIT}


class MALRuntimeError(RuntimeError):
    """Raised for malformed programs and for runtime name-resolution failures."""


@dataclass(frozen=True)
class Instruction:
    """One MAL instruction.

    ``exit`` instructions have no call; everything else invokes
    ``module.function(*args)`` and binds the result to ``targets`` (possibly
    empty for effect-only calls such as ``sql.rsColumn``).
    """

    opcode: str
    targets: tuple[str, ...] = ()
    module: str | None = None
    function: str | None = None
    args: tuple[Any, ...] = ()
    comment: str = ""

    def __post_init__(self) -> None:
        if self.opcode not in _OPCODES:
            raise ValueError(f"unknown opcode {self.opcode!r}")
        if self.opcode != OPCODE_EXIT and self.function is None:
            raise ValueError(f"{self.opcode} instructions must call a function")

    @property
    def callee(self) -> str:
        """The qualified ``module.function`` name."""
        return f"{self.module}.{self.function}" if self.module else (self.function or "")

    @property
    def target(self) -> str | None:
        """The single target variable (None when there are no targets)."""
        return self.targets[0] if self.targets else None

    def argument_names(self) -> list[str]:
        """Names of all variable references among the arguments."""
        return [arg.name for arg in self.args if isinstance(arg, Var)]

    def render(self) -> str:
        """Render the instruction in MAL-like concrete syntax."""
        if self.opcode == OPCODE_EXIT:
            return f"exit {self.targets[0] if self.targets else ''};".strip()
        call = f"{self.callee}({', '.join(str(arg) for arg in self.args)})"
        assignment = f"{', '.join(self.targets)} := " if self.targets else ""
        prefix = f"{self.opcode} " if self.opcode in {OPCODE_BARRIER, OPCODE_REDO} else ""
        comment = f"  # {self.comment}" if self.comment else ""
        return f"{prefix}{assignment}{call};{comment}"


@dataclass
class MALProgram:
    """A named MAL program: parameters plus a flat instruction list."""

    name: str
    parameters: tuple[str, ...] = ()
    instructions: list[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        self.instructions.extend(instructions)

    def render(self) -> str:
        """Pretty-print the program in MAL-like concrete syntax (cf. Figure 1)."""
        header = f"function user.{self.name}({', '.join(self.parameters)}):void;"
        body = "\n".join(f"    {instruction.render()}" for instruction in self.instructions)
        footer = f"end {self.name};"
        return "\n".join([header, body, footer]) if body else "\n".join([header, footer])

"""A small fluent builder for MAL programs.

The SQL compiler and the segment optimizer both need to emit instruction
sequences; the builder keeps variable naming (``X_1``, ``X_2``, ...) and
instruction construction in one place so the emitted plans look uniform and
resemble the paper's Figure 1.
"""

from __future__ import annotations

from typing import Any

from repro.mal.program import OPCODE_ASSIGN, Const, Instruction, MALProgram, Var


class ProgramBuilder:
    """Accumulates instructions and hands out fresh variable names."""

    def __init__(self, name: str, parameters: tuple[str, ...] = ()) -> None:
        self.program = MALProgram(name=name, parameters=parameters)
        self._counter = 0

    # -- variables ---------------------------------------------------------

    def fresh(self, prefix: str = "X") -> str:
        """A fresh variable name with the given prefix."""
        self._counter += 1
        return f"{prefix}_{self._counter}"

    @staticmethod
    def var(name: str) -> Var:
        """Reference an existing variable."""
        return Var(name)

    # -- instruction emission -------------------------------------------------

    def call(
        self,
        module: str,
        function: str,
        *args: Any,
        target: str | None = None,
        targets: tuple[str, ...] | None = None,
        comment: str = "",
    ) -> str:
        """Emit ``target := module.function(args...)`` and return the target.

        Plain Python values among ``args`` are wrapped as constants;
        :class:`Var`/:class:`Const` instances pass through unchanged.  When no
        target is supplied a fresh variable is allocated (except when
        ``targets=()`` explicitly requests an effect-only call).
        """
        if targets is None:
            targets = (target if target is not None else self.fresh(),)
        instruction = Instruction(
            opcode=OPCODE_ASSIGN,
            targets=tuple(targets),
            module=module,
            function=function,
            args=tuple(self._wrap(arg) for arg in args),
            comment=comment,
        )
        self.program.append(instruction)
        return targets[0] if targets else ""

    def effect(self, module: str, function: str, *args: Any, comment: str = "") -> None:
        """Emit an effect-only call with no result variable."""
        self.call(module, function, *args, targets=(), comment=comment)

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _wrap(arg: Any) -> Any:
        if isinstance(arg, (Var, Const)):
            return arg
        if isinstance(arg, str):
            # Bare strings name variables only when produced by this builder;
            # SQL identifiers and options must be passed as Const explicitly.
            return Var(arg)
        return Const(arg)

    def build(self) -> MALProgram:
        """The accumulated program."""
        return self.program

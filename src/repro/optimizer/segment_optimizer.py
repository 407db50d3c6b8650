"""The segment optimizer: MAL→MAL rewrite for adaptive columns (paper §3.1).

The rewrite looks for range selections over BATs bound from columns that the
BPM manages, and replaces each of them with a segment-aware iterator block::

    X1  := sql.bind("sys", "p", "ra", 0);
    X14 := algebra.uselect(X1, 205.1, 205.12, true, true);

becomes::

    Y1 := bpm.take("sys", "p", "ra");
    Y2 := bpm.new();
    barrier rseg := bpm.newIterator(Y1, 205.1, 205.12, true, true);
    T1 := algebra.select(rseg, 205.1, 205.12, true, true);
    bpm.addSegment(Y2, T1);
    redo rseg := bpm.hasMoreElements(Y1, 205.1, 205.12, true, true);
    exit rseg;
    X14 := bpm.result(Y2);

Only selections against bind level 0 (the persistent BAT) are rewritten; the
delta BATs stay on the conventional path, exactly as in the paper where the
technique targets bulk-loaded, read-mostly warehouses.

:meth:`SegmentOptimizer.optimize` is the whole tactical pass over a Figure-1
plan, in the paper's order: plan hygiene (duplicate-bind merging), the
segment-aware rewrite, then dead-code elimination of the binds the rewrite
obsoleted.  Its result is the plan's text (``explain``,
``PreparedPlan.text``); the engine runs the compiler's lowering instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mal.program import Const, Instruction, MALProgram, Var
from repro.optimizer.bpm import BatPartitionManager
from repro.optimizer.rules import merge_duplicate_binds, remove_dead_code
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class _BindInfo:
    """What a ``sql.bind`` instruction binds: table, column and level."""

    table: str
    column: str
    level: int


class SegmentOptimizer:
    """Rewrites selections on BPM-managed columns into iterator blocks."""

    name = "segment_optimizer"

    #: The selection operators eligible for the rewrite.
    _SELECT_FUNCTIONS = {"select", "uselect"}

    def __init__(self, catalog: Catalog, bpm: BatPartitionManager) -> None:
        self.catalog = catalog
        self.bpm = bpm
        self._fresh_counter = 0

    # -- rule protocol --------------------------------------------------------

    def optimize(self, program: MALProgram) -> MALProgram:
        """The optimized Figure-1 plan: merge binds, segment rewrite, dead code."""
        return remove_dead_code(self(merge_duplicate_binds(program)))

    def __call__(self, program: MALProgram) -> MALProgram:
        """Apply the rewrite; returns a new program (the input is not mutated)."""
        binds = self._collect_binds(program)
        rewritten = MALProgram(name=program.name, parameters=program.parameters)
        for instruction in program.instructions:
            replacement = self._rewrite_instruction(instruction, binds)
            if replacement is None:
                rewritten.append(instruction)
            else:
                rewritten.extend(replacement)
        return rewritten

    # -- helpers ------------------------------------------------------------------

    def _collect_binds(self, program: MALProgram) -> dict[str, _BindInfo]:
        """Map variable names to the column they were bound from."""
        binds: dict[str, _BindInfo] = {}
        for instruction in program.instructions:
            if instruction.module != "sql" or instruction.function != "bind":
                continue
            if instruction.target is None or len(instruction.args) < 4:
                continue
            args = [arg.value if isinstance(arg, Const) else None for arg in instruction.args]
            if any(arg is None for arg in args[:4]):
                continue
            binds[instruction.target] = _BindInfo(
                table=str(args[1]), column=str(args[2]), level=int(args[3])
            )
        return binds

    def _rewrite_instruction(
        self, instruction: Instruction, binds: dict[str, _BindInfo]
    ) -> list[Instruction] | None:
        """The iterator block replacing one selection, or ``None`` to keep it."""
        if instruction.module != "algebra" or instruction.function not in self._SELECT_FUNCTIONS:
            return None
        if not instruction.args or not isinstance(instruction.args[0], Var):
            return None
        bind = binds.get(instruction.args[0].name)
        if bind is None or bind.level != 0:
            return None
        if not self.bpm.is_managed(bind.table, bind.column):
            return None
        if instruction.target is None:
            return None
        bounds = list(instruction.args[1:])
        return self._emit_iterator_block(instruction.target, bind, bounds)

    def _fresh(self, prefix: str) -> str:
        self._fresh_counter += 1
        return f"{prefix}_{self._fresh_counter}"

    def _emit_iterator_block(
        self, target: str, bind: _BindInfo, bounds: list
    ) -> list[Instruction]:
        handle_var = self._fresh("Y")
        accumulator_var = self._fresh("Y")
        barrier_var = self._fresh("rseg")
        piece_var = self._fresh("T")
        comment = f"segment-aware sorted scan of {bind.table}.{bind.column}"
        return [
            Instruction(
                opcode="assign",
                targets=(handle_var,),
                module="bpm",
                function="take",
                args=(Const("sys"), Const(bind.table), Const(bind.column)),
                comment=comment,
            ),
            Instruction(
                opcode="assign",
                targets=(accumulator_var,),
                module="bpm",
                function="new",
                args=(),
            ),
            Instruction(
                opcode="barrier",
                targets=(barrier_var,),
                module="bpm",
                function="newIterator",
                args=(Var(handle_var), *bounds),
            ),
            Instruction(
                opcode="assign",
                targets=(piece_var,),
                module="algebra",
                function="select",
                args=(Var(barrier_var), *bounds),
            ),
            Instruction(
                opcode="assign",
                targets=(),
                module="bpm",
                function="addSegment",
                args=(Var(accumulator_var), Var(piece_var)),
            ),
            Instruction(
                opcode="redo",
                targets=(barrier_var,),
                module="bpm",
                function="hasMoreElements",
                args=(Var(handle_var), *bounds),
            ),
            Instruction(opcode="exit", targets=(barrier_var,)),
            Instruction(
                opcode="assign",
                targets=(target,),
                module="bpm",
                function="result",
                args=(Var(accumulator_var),),
            ),
        ]

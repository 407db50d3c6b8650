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

The rewrite asks one question of the BPM — is ``table.column`` managed? —
through the ``is_managed`` callable it is built with: the live BPM's
(``Database.optimizer``), or the answer a prepared plan captured when it was
prepared (its text, :attr:`repro.engine.plan_cache.PreparedPlan.text`).
:meth:`SegmentOptimizer.optimize` is the whole tactical pass over a Figure-1
plan, in the paper's order: plan hygiene (duplicate-bind merging), the
segment-aware rewrite, then dead-code elimination of the binds the rewrite
obsoleted.  Iterator-block names (``Y_1``, ``rseg_3``, ...) are numbered per
program, so a plan's text depends only on its statement and layout.  The
result is the plan's text; the engine runs the compiler's lowering instead.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator

from repro.mal.program import Const, Instruction, MALProgram, Var
from repro.optimizer.rules import merge_duplicate_binds, remove_dead_code


class SegmentOptimizer:
    """Rewrites selections on BPM-managed columns into iterator blocks."""

    def __init__(self, is_managed: Callable[[str, str], bool]) -> None:
        self.is_managed = is_managed

    def optimize(self, program: MALProgram) -> MALProgram:
        """The optimized Figure-1 plan: merge binds, segment rewrite, dead code."""
        return remove_dead_code(self._rewrite(merge_duplicate_binds(program)))

    def _rewrite(self, program: MALProgram) -> MALProgram:
        """A copy of ``program`` with every selection over a managed level-0 bind rewritten."""
        managed: dict[str, tuple[str, str]] = {}  # bind target -> (table, column)
        for instruction in program.instructions:
            if instruction.callee == "sql.bind" and instruction.args[3] == Const(0):
                table, column = instruction.args[1].value, instruction.args[2].value
                if self.is_managed(table, column):
                    managed[instruction.target] = (table, column)
        fresh = count(1)
        rewritten = MALProgram(name=program.name, parameters=program.parameters)
        for instruction in program.instructions:
            source = instruction.args[0] if instruction.args else None
            if instruction.callee in ("algebra.select", "algebra.uselect") and (
                isinstance(source, Var) and source.name in managed
            ):
                rewritten.extend(_iterator_block(
                    instruction.target, *managed[source.name], instruction.args[1:], fresh
                ))
            else:
                rewritten.append(instruction)
        return rewritten


def _iterator_block(
    target: str, table: str, column: str, bounds: tuple, fresh: Iterator[int]
) -> list[Instruction]:
    """The iterator block that computes ``target`` (see the module docstring)."""
    take, accumulator, barrier, piece = (
        f"{prefix}_{next(fresh)}" for prefix in ("Y", "Y", "rseg", "T")
    )
    comment = f"segment-aware sorted scan of {table}.{column}"
    return [
        Instruction(
            "assign", (take,), "bpm", "take", (Const("sys"), Const(table), Const(column)), comment
        ),
        Instruction("assign", (accumulator,), "bpm", "new"),
        Instruction("barrier", (barrier,), "bpm", "newIterator", (Var(take), *bounds)),
        Instruction("assign", (piece,), "algebra", "select", (Var(barrier), *bounds)),
        Instruction("assign", (), "bpm", "addSegment", (Var(accumulator), Var(piece))),
        Instruction("redo", (barrier,), "bpm", "hasMoreElements", (Var(take), *bounds)),
        Instruction("exit", (barrier,)),
        Instruction("assign", (target,), "bpm", "result", (Var(accumulator),)),
    ]

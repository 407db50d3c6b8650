"""Delta elision: the second lowering of an optimized plan (delta-free tables).

The Figure-1 plan merges three delta BATs into every column it touches.  While
a table has no pending insert, update or delete those BATs are empty and the
operators merging them return their other operand untouched — at run time,
once per instruction per query.  The three MAL→MAL rules here take the same
short-cuts statically, under the assumption "the statement's tables have no
pending deltas"; the executor runs the result only while
``ColumnStore.has_deltas`` says the assumption holds, and the full plan
otherwise.  Every rule is exact under that assumption: same candidates, same
adaptive selection, same exported columns.
"""

from __future__ import annotations

from dataclasses import replace

from repro.mal.program import OPCODE_ASSIGN, Const, Instruction, MALProgram, Var
from repro.optimizer.rules import apply_renames, remove_dead_code

#: Operators whose result is empty whenever their first operand is.
_EMPTY_IN_EMPTY_OUT = {"bat.reverse", "algebra.uselect", "algebra.select"}

#: The callees of the segment optimizer's iterator block, ``bpm.new`` to ``bpm.result``.
_ITERATOR_BLOCK = [
    "bpm.new", "bpm.newIterator", "algebra.select", "bpm.addSegment",
    "bpm.hasMoreElements", "", "bpm.result",
]


def elide_empty_deltas(program: MALProgram) -> tuple[MALProgram, tuple[str, ...]]:
    """Static twin of the operators' empty-operand early returns.

    ``sql.bind`` at level 1 or 2 and ``sql.bind_dbat`` define empty variables;
    ``reverse`` / ``uselect`` / ``select`` of an empty variable is empty;
    ``kunion(x, ∅)``, ``kunion(∅, x)`` and ``kdifference(x, ∅)`` *are* ``x``.
    Returns the program with those aliases applied and the tables whose
    emptiness it assumed.
    """
    empty: set[str] = set()
    renames: dict[str, str] = {}
    tables: dict[str, None] = {}
    kept: list[Instruction] = []
    for instruction in program.instructions:
        instruction = apply_renames(instruction, renames)
        target, callee, args = instruction.target, instruction.callee, instruction.args
        if instruction.opcode != OPCODE_ASSIGN or target is None:
            pass  # barrier / redo / exit and effect-only calls define nothing empty
        elif callee in ("sql.bind", "sql.bind_dbat"):
            if all(isinstance(arg, Const) for arg in args) and (
                callee == "sql.bind_dbat" or args[3].value in (1, 2)
            ):
                empty.add(target)
                tables[args[1].value] = None
        elif callee in _EMPTY_IN_EMPTY_OUT:
            if isinstance(args[0], Var) and args[0].name in empty:
                empty.add(target)
        elif callee in ("algebra.kunion", "algebra.kdifference"):
            left, right = (arg.name if isinstance(arg, Var) else None for arg in args)
            if right in empty and left is not None:
                renames[target] = left
                continue
            if left in empty and right is not None and callee == "algebra.kunion":
                renames[target] = right
                continue
        kept.append(instruction)
    return MALProgram(program.name, program.parameters, kept), tuple(tables)


def _collapsed(block: list[Instruction]) -> Instruction | None:
    """``X := bpm.select(handle, bounds…)`` if ``block`` is one iterator block."""
    if [instruction.callee for instruction in block] != _ITERATOR_BLOCK:
        return None
    new, barrier, select, add, redo, exit_, result = block
    piece, accumulator = Var(barrier.target), Var(new.target)
    if (
        select.args != (piece, *barrier.args[1:])
        or add.args != (accumulator, Var(select.target))
        or redo.args != barrier.args
        or redo.targets != barrier.targets
        or exit_.targets != barrier.targets
        or result.args != (accumulator,)
    ):
        return None
    return Instruction(
        OPCODE_ASSIGN, result.targets, "bpm", "select", barrier.args, barrier.comment
    )


def collapse_iterator_block(program: MALProgram) -> MALProgram:
    """The ``bpm.new`` … ``bpm.result`` iterator block as one ``bpm.select``.

    Exact, not an approximation: the BPM hands the block at most one piece,
    already the answer to the block's own bounds, so the loop body runs once
    and its inner ``algebra.select`` is the identity.
    """
    instructions = program.instructions
    kept: list[Instruction] = []
    index = 0
    while index < len(instructions):
        collapsed = _collapsed(instructions[index : index + len(_ITERATOR_BLOCK)])
        if collapsed is None:
            kept.append(instructions[index])
            index += 1
        else:
            kept.append(collapsed)
            index += len(_ITERATOR_BLOCK)
    return MALProgram(program.name, program.parameters, kept)


def fuse_projection(program: MALProgram) -> MALProgram:
    """``calc.oid(0)`` → ``markT`` → ``reverse`` → ``join(·, col)`` as one gather.

    Fires when ``col`` is a persistent bind (void-headed by construction):
    ``algebra.projection(candidates, col)`` gathers ``col`` at the candidate
    oids directly.  ``markT`` / ``reverse`` go with their last user.
    """
    definitions = {
        instruction.target: instruction
        for instruction in program.instructions
        if instruction.opcode == OPCODE_ASSIGN and instruction.target is not None
    }

    def defined_by(argument, callee: str) -> Instruction | None:
        definition = definitions.get(argument.name) if isinstance(argument, Var) else None
        return definition if definition is not None and definition.callee == callee else None

    kept: list[Instruction] = []
    for instruction in program.instructions:
        if instruction.opcode == OPCODE_ASSIGN and instruction.callee == "algebra.join":
            positions, column = instruction.args
            bind = defined_by(column, "sql.bind")
            reverse = defined_by(positions, "bat.reverse")
            mark = reverse and defined_by(reverse.args[0], "algebra.markT")
            base = mark and len(mark.args) == 2 and defined_by(mark.args[1], "calc.oid")
            if bind and base and bind.args[3] == Const(0) and base.args == (Const(0),):
                instruction = replace(
                    instruction, function="projection", args=(mark.args[0], column)
                )
        kept.append(instruction)
    return MALProgram(program.name, program.parameters, kept)


def lower_delta_free(program: MALProgram) -> tuple[MALProgram, tuple[str, ...]]:
    """The delta-free variant of an optimized plan, and the tables gating it."""
    elided, tables = elide_empty_deltas(program)
    return remove_dead_code(fuse_projection(collapse_iterator_block(elided))), tables

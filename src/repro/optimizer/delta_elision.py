"""Delta elision: the lowering of an optimized plan that the executor runs.

The Figure-1 plan merges three delta BATs into every column it touches.  No
write fills the update delta (level 2 is always empty), so the MAL→MAL rules
here drop it unconditionally; each predicate's merge of its insert hits, and
the final difference against the deletion BAT, become one ``sql.live`` step
after the select, which costs one check on a table without deltas.  A select
without a predicate starts from every row instead: its merge of the
persistent and insert BATs and that difference become one ``sql.tid`` step,
the table's live oids.  Every rule is exact: same candidates, same adaptive
selection, same exported columns as the Figure-1 plan, which stays the
plan's text.
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


def _definitions(program: MALProgram) -> dict[str, Instruction]:
    """Each assigned variable's defining instruction."""
    return {
        instruction.target: instruction
        for instruction in program.instructions
        if instruction.opcode == OPCODE_ASSIGN and instruction.target is not None
    }


def _defined_by(
    definitions: dict[str, Instruction], argument, callee: str
) -> Instruction | None:
    """The instruction defining ``argument`` if it calls ``callee``."""
    definition = definitions.get(argument.name) if isinstance(argument, Var) else None
    return definition if definition is not None and definition.callee == callee else None


def _bound(instruction: Instruction | None, level: int) -> tuple | None:
    """``(schema, table, column)`` of a constant ``sql.bind`` at ``level``."""
    if instruction is None or not all(isinstance(arg, Const) for arg in instruction.args):
        return None
    *column, bound_level = (arg.value for arg in instruction.args)
    return tuple(column) if bound_level == level else None


def elide_empty_updates(program: MALProgram) -> MALProgram:
    """Static twin of the operators' empty-operand early returns, for updates.

    ``sql.bind`` at level 2 defines an empty variable; ``reverse`` /
    ``uselect`` / ``select`` of an empty variable is empty; ``kunion(x, ∅)``,
    ``kunion(∅, x)`` and ``kdifference(x, ∅)`` *are* ``x``.  Returns the
    program with those aliases applied.
    """
    empty: set[str] = set()
    renames: dict[str, str] = {}
    kept: list[Instruction] = []
    for instruction in program.instructions:
        instruction = apply_renames(instruction, renames)
        target, callee, args = instruction.target, instruction.callee, instruction.args
        if instruction.opcode != OPCODE_ASSIGN or target is None:
            pass  # barrier / redo / exit and effect-only calls define nothing empty
        elif callee == "sql.bind":
            if _bound(instruction, 2) is not None:
                empty.add(target)
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
    return MALProgram(program.name, program.parameters, kept)


def _live_step(instruction: Instruction, definitions: dict[str, Instruction]) -> Instruction | None:
    """``sql.live(hits, source, schema, table, column, bounds…)`` for one merge.

    ``instruction`` must be ``kunion(hits, inserted)`` where ``inserted`` is
    the predicate's ``uselect`` over the insert delta and ``hits`` the same
    range selected from the column's persistent bind or adaptive handle.
    """
    hits, inserted = instruction.args
    tail_select = _defined_by(definitions, inserted, "algebra.uselect")
    if tail_select is None:
        return None
    column = _bound(_defined_by(definitions, tail_select.args[0], "sql.bind"), 1)
    bounds = tail_select.args[1:]
    select = _defined_by(definitions, hits, "algebra.uselect") or _defined_by(
        definitions, hits, "bpm.select"
    )
    if column is None or select is None or select.args[1:] != bounds:
        return None
    source = select.args[0]
    if select.callee == "algebra.uselect":
        matches = _bound(_defined_by(definitions, source, "sql.bind"), 0) == column
    else:
        take = _defined_by(definitions, source, "bpm.take")
        matches = take is not None and tuple(arg.value for arg in take.args) == column
    if not matches:
        return None
    return Instruction(
        OPCODE_ASSIGN, instruction.targets, "sql", "live",
        (hits, source, *(Const(part) for part in column), *bounds),
        f"live rows of {column[1]}.{column[2]}",
    )


def _every_row(definitions: dict[str, Instruction], argument) -> tuple | None:
    """``(schema, table, column)`` if ``argument`` is ``mirror(kunion(bind 0, bind 1))``."""
    mirror = _defined_by(definitions, argument, "bat.mirror")
    merge = mirror and _defined_by(definitions, mirror.args[0], "algebra.kunion")
    column = merge and _bound(_defined_by(definitions, merge.args[0], "sql.bind"), 0)
    inserts = merge and _bound(_defined_by(definitions, merge.args[1], "sql.bind"), 1)
    return column if column and column == inserts else None


def insert_live_rows(program: MALProgram) -> MALProgram:
    """Each predicate's insert merge as one ``sql.live`` step; no deletion difference.

    ``kunion(select(level 0), uselect(level 1))`` becomes the live-rows step
    over the select, which drops the tombstoned oids and appends the insert
    delta's hits.  A ``kintersect`` with a live operand is live, and
    ``kdifference(x, reverse(bind_dbat))`` of a live ``x`` *is* ``x``.  With
    no predicate, ``x`` is every row of the table — ``mirror`` of its merged
    persistent and insert BATs — and the difference becomes ``sql.tid``.
    """
    definitions = _definitions(program)
    live: set[str] = set()
    renames: dict[str, str] = {}
    kept: list[Instruction] = []
    for instruction in program.instructions:
        instruction = apply_renames(instruction, renames)
        callee, args = instruction.callee, instruction.args
        if instruction.opcode == OPCODE_ASSIGN and instruction.target is not None:
            if callee == "algebra.kunion":
                step = _live_step(instruction, definitions)
                if step is not None:
                    instruction = step
                    live.add(instruction.target)
            elif callee == "algebra.kintersect" and any(
                isinstance(arg, Var) and arg.name in live for arg in args
            ):
                live.add(instruction.target)
            elif callee == "algebra.kdifference" and isinstance(args[0], Var):
                reverse = _defined_by(definitions, args[1], "bat.reverse")
                deletions = reverse and _defined_by(definitions, reverse.args[0], "sql.bind_dbat")
                if deletions and args[0].name in live:
                    renames[instruction.target] = args[0].name
                    continue
                rows = deletions and _every_row(definitions, args[0])
                if rows and deletions.args[:2] == tuple(Const(part) for part in rows[:2]):
                    instruction = Instruction(
                        OPCODE_ASSIGN, instruction.targets, "sql", "tid", deletions.args[:2],
                        f"live rows of {rows[1]}",
                    )
        kept.append(instruction)
    return MALProgram(program.name, program.parameters, kept)


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

    Fires when ``col`` is ``kunion`` of a column's persistent and insert
    binds: ``algebra.projection(candidates, persistent)`` gathers the
    column's logical rows at the candidate oids directly (the persistent BAT
    names the merged view over both).  ``markT`` / ``reverse`` and the merge
    go with their last user.
    """
    definitions = _definitions(program)
    kept: list[Instruction] = []
    for instruction in program.instructions:
        if instruction.opcode == OPCODE_ASSIGN and instruction.callee == "algebra.join":
            positions, column = instruction.args
            merge = _defined_by(definitions, column, "algebra.kunion")
            persistent = merge and merge.args[0]
            bound = merge and _bound(_defined_by(definitions, persistent, "sql.bind"), 0)
            inserts = merge and _bound(_defined_by(definitions, merge.args[1], "sql.bind"), 1)
            reverse = _defined_by(definitions, positions, "bat.reverse")
            mark = reverse and _defined_by(definitions, reverse.args[0], "algebra.markT")
            base = (
                mark and len(mark.args) == 2
                and _defined_by(definitions, mark.args[1], "calc.oid")
            )
            if bound and bound == inserts and base and base.args == (Const(0),):
                instruction = replace(
                    instruction, function="projection", args=(mark.args[0], persistent)
                )
        kept.append(instruction)
    return MALProgram(program.name, program.parameters, kept)


def lower_short(program: MALProgram) -> MALProgram:
    """The lowering of an optimized plan: what the executor runs."""
    elided = elide_empty_updates(collapse_iterator_block(program))
    return remove_dead_code(fuse_projection(insert_live_rows(elided)))

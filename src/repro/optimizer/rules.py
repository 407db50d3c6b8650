"""Generic MAL→MAL optimizer rules.

These model the "common heuristic optimization rules aimed at data volume
reduction" and general plan hygiene the paper attributes to MonetDB's
compilation stack (§2).  They are deliberately simple: duplicate ``sql.bind``
elimination (the naive compiler binds the same column several times) and dead
code elimination for pure operators whose results are never used.
"""

from __future__ import annotations

from repro.mal.program import Const, Instruction, MALProgram, Var

#: Callees considered pure (no observable side effect), eligible for removal.
_PURE_MODULES = {"algebra", "bat", "calc", "aggr"}
_PURE_SQL_FUNCTIONS = {"bind", "bind_dbat"}


def _is_pure(instruction: Instruction) -> bool:
    if instruction.module in _PURE_MODULES:
        return True
    return instruction.module == "sql" and instruction.function in _PURE_SQL_FUNCTIONS


def remove_dead_code(program: MALProgram) -> MALProgram:
    """Drop pure instructions whose targets are never referenced.

    The pass iterates to a fixpoint so chains of dead instructions disappear
    entirely (e.g. a ``sql.bind`` only feeding a dead ``algebra.uselect``).
    """
    instructions = list(program.instructions)
    changed = True
    while changed:
        changed = False
        used = {
            name
            for instruction in instructions
            for name in instruction.argument_names()
        }
        survivors: list[Instruction] = []
        for instruction in instructions:
            is_dead = (
                instruction.opcode == "assign"
                and instruction.targets
                and _is_pure(instruction)
                and not any(target in used for target in instruction.targets)
            )
            if is_dead:
                changed = True
                continue
            survivors.append(instruction)
        instructions = survivors
    optimized = MALProgram(name=program.name, parameters=program.parameters)
    optimized.extend(instructions)
    return optimized


def merge_duplicate_binds(program: MALProgram) -> MALProgram:
    """Reuse the first ``sql.bind`` of each (table, column, level) triple.

    The naive SQL compiler emits a fresh bind cascade per predicate and per
    projected column; this pass canonicalises them so the executed plan binds
    every BAT once, like MonetDB's ``commonTerms`` optimizer.
    """
    seen: dict[tuple, str] = {}
    renames: dict[str, str] = {}
    optimized = MALProgram(name=program.name, parameters=program.parameters)
    for instruction in program.instructions:
        instruction = apply_renames(instruction, renames)
        if (
            instruction.opcode == "assign"
            and instruction.module == "sql"
            and instruction.function in {"bind", "bind_dbat"}
            and instruction.target is not None
            and all(isinstance(arg, Const) for arg in instruction.args)
        ):
            key = (instruction.function, tuple(arg.value for arg in instruction.args))
            if key in seen:
                renames[instruction.target] = seen[key]
                continue
            seen[key] = instruction.target
        optimized.append(instruction)
    return optimized


def apply_renames(instruction: Instruction, renames: dict[str, str]) -> Instruction:
    """``instruction`` with every renamed variable argument replaced by its alias."""
    if not renames:
        return instruction
    new_args = tuple(
        Var(renames[arg.name]) if isinstance(arg, Var) and arg.name in renames else arg
        for arg in instruction.args
    )
    if new_args == instruction.args:
        return instruction
    return instruction.with_args(new_args)

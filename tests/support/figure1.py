"""Figure 1's runtime: what the interpreter oracle runs the paper's plan with.

The engine registers only the callees its lowering emits
(:func:`repro.mal.modules.default_registry` plus ``bpm.take`` /
``bpm.select``).  The paper's Figure-1 plan, as the segment optimizer
rewrites it, calls more: the deletion BAT, ``kunion`` / ``kdifference`` /
``markT`` / ``reverse`` / ``join``, and the BPM's ``barrier`` / ``redo`` /
``exit`` iterator block.  :func:`runtime` supplies those functions over a
product registry, :func:`match_blocks` validates the guarded blocks, and
:class:`BlockBuilder` emits them in hand-built test programs.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.mal.builder import ProgramBuilder
from repro.mal.modules import ModuleRegistry
from repro.mal.program import (
    OPCODE_BARRIER,
    OPCODE_EXIT,
    OPCODE_REDO,
    Instruction,
    MALRuntimeError,
)
from repro.storage.bat import BAT
from repro.storage.column import ColumnStore
from tests.support import operators


def deletion_bat(store: ColumnStore) -> BAT:
    """The table's deletion BAT (``sql.bind_dbat``): its deleted oids, ascending.

    A snapshot: a later delete never reaches a BAT already bound.
    """
    mask = store.live_mask
    deleted = np.empty(0, dtype=np.int64) if mask is None else np.flatnonzero(~mask)
    return BAT.from_pairs(deleted, deleted, name=f"sys_{store.table}_dbat")


def _bounds(flags: tuple) -> dict[str, bool]:
    """MAL's optional ``include_low, include_high`` flags (default ``[low, high)``)."""
    return {
        "include_low": bool(flags[0]) if len(flags) > 0 else True,
        "include_high": bool(flags[1]) if len(flags) > 1 else False,
    }


def _bpm_result(ctx, accumulator: list[BAT]) -> BAT:
    if not accumulator:
        return BAT.from_pairs(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if len(accumulator) == 1:
        return accumulator[0]
    heads = np.concatenate([piece.head for piece in accumulator])
    tails = np.concatenate([piece.tail for piece in accumulator])
    return BAT.from_pairs(heads, tails)


def runtime(registry: ModuleRegistry) -> dict[str, Callable[..., Any]]:
    """Figure 1's functions by callee, over the product ``registry``.

    ``bpm.newIterator`` hands the block the piece ``registry``'s
    ``bpm.select`` answers — the engine's own adapting selection, so the
    oracle adapts a column exactly as the lowering does — or ``None`` (skip
    the block) when nothing qualifies.
    """

    def new_iterator(ctx, handle, *bounds) -> BAT | None:
        piece = registry.resolve("bpm.select")(ctx, handle, *bounds)
        return piece if piece.count else None

    # Each entry looks its kernel up in ``operators`` per call, so a test can
    # patch one there.
    return {
        "algebra.select": lambda ctx, bat, low, high, *flags: operators.select(
            bat, low, high, **_bounds(flags)
        ),
        "algebra.kunion": lambda ctx, left, right: operators.kunion(left, right),
        "algebra.kdifference": lambda ctx, left, right: operators.kdifference(left, right),
        "algebra.markT": lambda ctx, bat, base=0: operators.mark_tail(bat, int(base)),
        "algebra.join": lambda ctx, left, right: operators.join(left, right),
        "bat.reverse": lambda ctx, bat: operators.reverse(bat),
        "bat.mirror": lambda ctx, bat: BAT.from_pairs(bat.head, bat.head, name=bat.name),
        "calc.oid": lambda ctx, value: int(value),
        "sql.bind_dbat": lambda ctx, schema, table, level: deletion_bat(
            ctx.catalog.table(table)
        ),
        "bpm.new": lambda ctx: [],
        "bpm.newIterator": new_iterator,
        "bpm.hasMoreElements": lambda ctx, handle, *bounds: None,  # one piece is the answer
        "bpm.addSegment": lambda ctx, accumulator, piece: accumulator.append(piece),
        "bpm.result": _bpm_result,
    }


def match_blocks(instructions: list[Instruction]) -> dict[int, tuple[int, int]]:
    """Map barrier/redo instruction indices to (barrier_index, exit_index).

    Raises :class:`MALRuntimeError` for unbalanced or nested blocks.
    """
    blocks: dict[int, tuple[int, int]] = {}
    open_barriers: dict[str, int] = {}
    pending: dict[str, list[int]] = {}
    for index, instruction in enumerate(instructions):
        name = instruction.target
        if instruction.opcode == OPCODE_BARRIER:
            if name in open_barriers:
                raise MALRuntimeError(f"nested barrier on the same variable {name!r}")
            open_barriers[name] = index
            pending[name] = [index]
        elif instruction.opcode == OPCODE_REDO:
            if name not in open_barriers:
                raise MALRuntimeError(f"redo outside of a barrier block: {name!r}")
            pending[name].append(index)
        elif instruction.opcode == OPCODE_EXIT:
            if name not in open_barriers:
                raise MALRuntimeError(f"exit without a matching barrier: {name!r}")
            barrier_index = open_barriers.pop(name)
            for member in pending.pop(name):
                blocks[member] = (barrier_index, index)
    if open_barriers:
        unmatched = ", ".join(sorted(open_barriers))
        raise MALRuntimeError(f"barrier blocks without exit: {unmatched}")
    return blocks


class BlockBuilder(ProgramBuilder):
    """A :class:`ProgramBuilder` that also emits guarded blocks."""

    def barrier(self, module: str, function: str, *args: Any, target: str | None = None) -> str:
        """Emit a ``barrier`` instruction opening a guarded block."""
        name = target if target is not None else self.fresh("rseg")
        self._guard(OPCODE_BARRIER, name, module, function, args)
        return name

    def redo(self, barrier_var: str, module: str, function: str, *args: Any) -> None:
        """Emit a ``redo`` instruction re-testing the barrier condition."""
        self._guard(OPCODE_REDO, barrier_var, module, function, args)

    def exit(self, barrier_var: str) -> None:
        """Emit the ``exit`` closing a barrier block."""
        self.program.append(Instruction(opcode=OPCODE_EXIT, targets=(barrier_var,)))

    def _guard(self, opcode: str, name: str, module: str, function: str, args: tuple) -> None:
        self.program.append(
            Instruction(
                opcode=opcode, targets=(name,), module=module, function=function,
                args=tuple(self._wrap(arg) for arg in args),
            )
        )

"""MAL runtime modules: the functions instructions can call.

A :class:`ModuleRegistry` maps qualified names such as ``algebra.select`` to
Python callables ``fn(ctx, *args)`` where ``ctx`` is the execution context
(variables, catalog, result sets, BPM).  :func:`default_registry` registers
the built-in modules — ``algebra``, ``bat``, ``calc``, ``aggr`` and ``sql`` —
while the Bat Partition Manager registers its own ``bpm`` module when adaptive
columns are enabled.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mal import operators
from repro.storage.bat import BAT

ModuleFunction = Callable[..., Any]


class ModuleRegistry:
    """Name → implementation mapping for MAL module functions."""

    def __init__(self) -> None:
        self._functions: dict[str, ModuleFunction] = {}

    def register(self, module: str, function: str, implementation: ModuleFunction) -> None:
        """Register ``module.function``; overrides any existing registration."""
        self._functions[f"{module}.{function}"] = implementation

    def register_module(self, module: str, functions: dict[str, ModuleFunction]) -> None:
        """Register a whole module at once."""
        for function, implementation in functions.items():
            self.register(module, function, implementation)

    def resolve(self, callee: str) -> ModuleFunction:
        """Look up a qualified name; raises :class:`KeyError` when unknown."""
        try:
            return self._functions[callee]
        except KeyError as exc:
            raise KeyError(f"no MAL implementation registered for {callee!r}") from exc

    def knows(self, callee: str) -> bool:
        """True when the qualified name is registered."""
        return callee in self._functions

    def copy(self) -> "ModuleRegistry":
        """An independent copy (used per-database so BPM registrations stay local)."""
        fresh = ModuleRegistry()
        fresh._functions.update(self._functions)
        return fresh


# ---------------------------------------------------------------------------
# Built-in module implementations
# ---------------------------------------------------------------------------


def _algebra_select(ctx, bat: BAT, low, high, *flags) -> BAT:
    include_low = bool(flags[0]) if len(flags) > 0 else True
    include_high = bool(flags[1]) if len(flags) > 1 else False
    return operators.select(bat, low, high, include_low=include_low, include_high=include_high)


def _algebra_uselect(ctx, bat: BAT, low, high, *flags) -> BAT:
    include_low = bool(flags[0]) if len(flags) > 0 else True
    include_high = bool(flags[1]) if len(flags) > 1 else False
    return operators.uselect(bat, low, high, include_low=include_low, include_high=include_high)


def _algebra_thetaselect(ctx, bat: BAT, value, operator: str) -> BAT:
    return operators.thetaselect(bat, value, operator)


def _algebra_kunion(ctx, left: BAT, right: BAT) -> BAT:
    return operators.kunion(left, right)


def _algebra_kdifference(ctx, left: BAT, right: BAT) -> BAT:
    return operators.kdifference(left, right)


def _algebra_kintersect(ctx, left: BAT, right: BAT) -> BAT:
    return operators.kintersect(left, right)


def _algebra_slice(ctx, bat: BAT, start, stop) -> BAT:
    return bat.slice(int(start), int(stop))


def _algebra_markt(ctx, bat: BAT, base=0) -> BAT:
    return operators.mark_tail(bat, int(base))


def _algebra_join(ctx, left: BAT, right: BAT) -> BAT:
    return operators.join(left, right)


def _algebra_projection(ctx, candidates: BAT, column: BAT) -> BAT:
    return BAT(operators.projection(column, candidates.head), name=column.name)


def _bat_reverse(ctx, bat: BAT) -> BAT:
    return bat.reverse()


def _bat_mirror(ctx, bat: BAT) -> BAT:
    return BAT.from_pairs(bat.head, bat.head, name=bat.name)


def _calc_oid(ctx, value) -> int:
    return int(value)


def _calc_dbl(ctx, value) -> float:
    return float(value)


def _aggr_sum(ctx, bat: BAT) -> float:
    return operators.aggr_sum(bat)


def _aggr_count(ctx, bat: BAT) -> int:
    return operators.aggr_count(bat)


def _aggr_avg(ctx, bat: BAT) -> float:
    return operators.aggr_avg(bat)


def _aggr_min(ctx, bat: BAT) -> float:
    return operators.aggr_min(bat)


def _aggr_max(ctx, bat: BAT) -> float:
    return operators.aggr_max(bat)


def _sql_bind(ctx, schema: str, table: str, column: str, level) -> BAT:
    return ctx.catalog.column(table, column).bind(int(level))


def _sql_bind_dbat(ctx, schema: str, table: str, level) -> BAT:
    return ctx.catalog.table(table).deletion_bat


def _sql_result_set(ctx, n_columns, n_rows_hint, order_bat) -> int:
    return ctx.new_result_set()


def _sql_rs_column(ctx, result_set_id, table: str, column: str, type_name: str, digits, scale, bat):
    ctx.add_result_column(int(result_set_id), column, bat)
    return None


def _sql_export_result(ctx, result_set_id, destination: str = ""):
    ctx.export_result(int(result_set_id))
    return None


def _sql_export_value(ctx, name: str, value):
    ctx.export_scalar(name, value)
    return None


def default_registry() -> ModuleRegistry:
    """A registry with every built-in module registered."""
    registry = ModuleRegistry()
    registry.register_module(
        "algebra",
        {
            "select": _algebra_select,
            "uselect": _algebra_uselect,
            "thetaselect": _algebra_thetaselect,
            "kunion": _algebra_kunion,
            "kdifference": _algebra_kdifference,
            "kintersect": _algebra_kintersect,
            "slice": _algebra_slice,
            "markT": _algebra_markt,
            "join": _algebra_join,
            "leftfetchjoin": _algebra_join,
            "projection": _algebra_projection,
        },
    )
    registry.register_module("bat", {"reverse": _bat_reverse, "mirror": _bat_mirror})
    registry.register_module("calc", {"oid": _calc_oid, "dbl": _calc_dbl})
    registry.register_module(
        "aggr",
        {
            "sum": _aggr_sum,
            "count": _aggr_count,
            "avg": _aggr_avg,
            "min": _aggr_min,
            "max": _aggr_max,
        },
    )
    registry.register_module(
        "sql",
        {
            "bind": _sql_bind,
            "bind_dbat": _sql_bind_dbat,
            "resultSet": _sql_result_set,
            "rsColumn": _sql_rs_column,
            "exportResult": _sql_export_result,
            "exportValue": _sql_export_value,
        },
    )
    return registry

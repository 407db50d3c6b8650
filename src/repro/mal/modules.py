"""MAL runtime modules: the functions instructions can call.

A :class:`ModuleRegistry` maps qualified names such as ``algebra.uselect`` to
Python callables ``fn(ctx, *args)`` where ``ctx`` is the execution context
(variables, catalog, result sets).  :func:`default_registry` registers the
built-in ``algebra``, ``aggr`` and ``sql`` functions and the Bat Partition
Manager registers its ``bpm.take`` / ``bpm.select``: together exactly the
callees the lowering (:meth:`repro.sql.compiler.SQLCompiler.lower`) emits.  The rest
of the Figure-1 plan — the deletion BAT, ``kunion`` / ``kdifference``,
``markT`` / ``reverse`` / ``join`` and the BPM's iterator block — runs only in
the test suite's interpreter oracle, which brings its own functions.
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


# ---------------------------------------------------------------------------
# Built-in module implementations
# ---------------------------------------------------------------------------


def _algebra_uselect(ctx, bat: BAT, low, high, *flags) -> BAT:
    include_low = bool(flags[0]) if len(flags) > 0 else True
    include_high = bool(flags[1]) if len(flags) > 1 else False
    return operators.uselect(bat, low, high, include_low=include_low, include_high=include_high)


def _algebra_kintersect(ctx, left: BAT, right: BAT) -> BAT:
    return operators.kintersect(left, right)


def _algebra_slice(ctx, bat: BAT, start, stop) -> BAT:
    return bat.slice(int(start), int(stop))


def _algebra_projection(ctx, candidates: BAT, column: BAT) -> BAT:
    return BAT(operators.projection(column, candidates.head), name=column.name)


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


def _sql_tid(ctx, schema: str, table: str) -> BAT:
    """The live oids of ``table`` as a candidate list (MonetDB's ``sql.tid``).

    Loaded and pending-insert rows alike, tombstoned ones dropped, in oid
    order; no value is read, so a NaN row is as live as any other.  The
    lowering of a select without a ``WHERE`` clause starts from it.
    """
    oids = ctx.catalog.table(table).live_oids()
    return BAT.from_pairs(oids, oids, name=f"sys_{table}_tid")


def _sql_live(
    ctx, candidates: BAT, source, schema: str, table: str, column: str, low, high,
    include_low=True, include_high=False,
) -> BAT:
    """The lowered plan's live-rows step after a select over ``source``.

    ``source`` is what the select read: a persistent BAT, or an adaptive
    column's handle (built over the oids ``[0, rows)`` — pending inserts
    included when it was enabled over them).  Its end is where the scan of
    the pending-insert tail starts.  A table without deltas costs one check.
    """
    store = ctx.catalog.table(table)
    if not store.has_deltas:
        return candidates
    end = source.hseqbase + source.count if isinstance(source, BAT) else source.rows
    return operators.live_rows(
        candidates, store.column(column).bind(1), store.live_mask, end, low, high,
        include_low=bool(include_low), include_high=bool(include_high),
    )


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
    """A registry with every built-in function the lowering calls, ``bpm`` aside."""
    registry = ModuleRegistry()
    registry.register_module(
        "algebra",
        {
            "uselect": _algebra_uselect,
            "kintersect": _algebra_kintersect,
            "slice": _algebra_slice,
            "projection": _algebra_projection,
        },
    )
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
            "tid": _sql_tid,
            "live": _sql_live,
            "resultSet": _sql_result_set,
            "rsColumn": _sql_rs_column,
            "exportResult": _sql_export_result,
            "exportValue": _sql_export_value,
        },
    )
    return registry

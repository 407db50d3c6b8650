"""Property tests: CompiledPlan and Interpreter.run are semantically identical.

Satellite of the compiled-fast-path PR: the slot-based executor must produce
the same final variable environments and the same per-query ``QueryStats`` as
the tree-walking interpreter — including across the segment optimizer's
barrier/redo/exit iterator rewrites, where the control flow actually loops.

A prepared plan carries two compiled variants — the full Figure-1 cascade and
its delta-free lowering (``repro.optimizer.delta_elision``).  On a table with
no pending deltas both must export what ``Interpreter.run`` exports from the
full plan, for every built-in organisation and every statement shape.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.accounting import QueryStats
from repro.engine.database import Database
from repro.engine.execution import ExecutionContext
from repro.mal.builder import ProgramBuilder
from repro.mal.compiled import compile_program
from repro.mal.interpreter import Interpreter
from repro.mal.modules import ModuleRegistry
from repro.mal.program import Var
from repro.sql.parser import parse
from repro.storage.bat import BAT
from repro.util.units import KB

#: QueryStats fields compared across executors (wall-clock timings excluded).
_STATS_FIELDS = [
    field for field in QueryStats.__dataclass_fields__ if not field.endswith("_seconds")
]


# ---------------------------------------------------------------------------
# Synthetic barrier programs: arbitrary item streams through a redo loop
# ---------------------------------------------------------------------------


def _loop_registry(items: list[int]) -> ModuleRegistry:
    registry = ModuleRegistry()
    state = {"position": 0}
    collected: list[int] = []

    def new_iterator(ctx, *args):
        state["position"] = 0
        return advance(ctx)

    def advance(ctx, *args):
        if state["position"] >= len(items):
            return None
        item = items[state["position"]]
        state["position"] += 1
        return item

    registry.register("iter", "new", new_iterator)
    registry.register("iter", "next", advance)
    registry.register("calc", "add", lambda ctx, a, b: a + b)
    registry.register("iter", "collect", lambda ctx, value: collected.append(value))
    registry.register("iter", "sink", lambda ctx: list(collected))
    return registry


def _loop_program(offset: int):
    builder = ProgramBuilder("loop", parameters=("A0",))
    barrier = builder.barrier("iter", "new", target="item")
    builder.call("calc", "add", Var("item"), Var("A0"), target="shifted")
    builder.effect("iter", "collect", Var("shifted"))
    builder.redo(barrier, "iter", "next")
    builder.exit(barrier)
    builder.call("iter", "sink", target="all")
    builder.call("calc", "add", Var("A0"), builder.const(offset), target="tail_value")
    return builder.build()


class _PlainContext:
    variables: dict = {}


@given(
    items=st.lists(st.integers(-1000, 1000), max_size=12),
    offset=st.integers(-5, 5),
    argument=st.integers(-100, 100),
)
@settings(max_examples=60, deadline=None)
def test_barrier_loop_environments_match(items, offset, argument):
    program = _loop_program(offset)
    interpreted = Interpreter(_loop_registry(items)).run(
        program, _PlainContext(), {"A0": argument}
    )
    compiled = compile_program(program, _loop_registry(items)).run(
        _PlainContext(), {"A0": argument}
    )
    assert interpreted == compiled


# ---------------------------------------------------------------------------
# Engine plans: the segment optimizer's iterator rewrite, end to end
# ---------------------------------------------------------------------------

_N_ROWS = 4_000


def _build_database(organisation: str | None = "segmentation") -> Database:
    rng = np.random.default_rng(23)
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64", "dec": "float32"})
    db.bulk_load(
        "p",
        {
            "objid": np.arange(_N_ROWS, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, _N_ROWS),
            "dec": rng.uniform(-90.0, 90.0, _N_ROWS).astype(np.float32),
        },
    )
    if organisation is not None:
        db.enable_adaptive("p", "ra", strategy=organisation, model="apm",
                           m_min=1 * KB, m_max=4 * KB, seed=1)
    return db


def _normalize(value):
    """A comparable representation of a MAL environment value."""
    if isinstance(value, BAT):
        return ("BAT", value.head.tolist(), value.tail.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    if hasattr(value, "qualified_name"):  # AdaptiveColumnHandle
        return ("handle", value.qualified_name)
    return value


def _stats_tuple(stats: QueryStats) -> tuple:
    return tuple(getattr(stats, field) for field in _STATS_FIELDS)


# Lows start below the data domain: a range entirely under it answers empty.
queries = st.lists(
    st.tuples(
        st.floats(-60.0, 350.0, allow_nan=False, allow_infinity=False),
        st.floats(0.01, 30.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=5,
)


@given(queries=queries)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engine_iterator_rewrites_match_interpreter(queries):
    """Same env and same QueryStats, query by query, on two identical databases."""
    interpreted_db = _build_database()
    compiled_db = _build_database()
    for low, width in queries:
        sql = f"SELECT objid FROM p WHERE ra BETWEEN {low!r} AND {low + width!r}"

        plan_a = interpreted_db.optimizer.optimize(
            interpreted_db.compiler.compile(parse(sql))
        )
        context_a = ExecutionContext(catalog=interpreted_db.catalog)
        env_a = Interpreter(interpreted_db.registry).run(plan_a, context_a)

        plan_b = compiled_db.optimizer.optimize(compiled_db.compiler.compile(parse(sql)))
        context_b = ExecutionContext(catalog=compiled_db.catalog)
        env_b = compile_program(plan_b, compiled_db.registry).run(context_b)

        assert set(env_a) == set(env_b)
        for name in env_a:
            assert _normalize(env_a[name]) == _normalize(env_b[name]), name
        assert context_a.exported_columns().keys() == context_b.exported_columns().keys()
        for name, column in context_a.exported_columns().items():
            assert np.array_equal(column, context_b.exported_columns()[name])

    history_a = interpreted_db.adaptive_handle("p", "ra").adaptive.history
    history_b = compiled_db.adaptive_handle("p", "ra").adaptive.history
    assert len(history_a) == len(history_b) == len(queries)
    for stats_a, stats_b in zip(history_a, history_b):
        assert _stats_tuple(stats_a) == _stats_tuple(stats_b)


def test_database_execute_matches_interpreter_results():
    """The full execute() fast path answers exactly like the interpreter."""
    fast_db = _build_database()
    slow_db = _build_database()
    rng = np.random.default_rng(5)
    for _ in range(25):
        low = float(rng.uniform(0.0, 350.0))
        sql = f"SELECT objid FROM p WHERE ra BETWEEN {low!r} AND {low + 4.0!r}"

        fast = fast_db.execute(sql)

        plan = slow_db.optimizer.optimize(slow_db.compiler.compile(parse(sql)))
        context = ExecutionContext(catalog=slow_db.catalog)
        Interpreter(slow_db.registry).run(plan, context)
        expected = context.exported_columns()

        assert fast.column_names == list(expected)
        for name in expected:
            assert np.array_equal(np.sort(fast.column(name)), np.sort(expected[name]))

    history_fast = fast_db.adaptive_handle("p", "ra").adaptive.history
    history_slow = slow_db.adaptive_handle("p", "ra").adaptive.history
    assert len(history_fast) == len(history_slow)
    for stats_a, stats_b in zip(history_fast, history_slow):
        assert _stats_tuple(stats_a) == _stats_tuple(stats_b)


def test_compiled_plan_is_reusable_across_contexts():
    """One compiled plan, many executions: no state bleeds between runs."""
    db = _build_database()
    sql = "SELECT objid FROM p WHERE ra BETWEEN 100.0 AND 120.0"
    plan = compile_program(db.optimizer.optimize(db.compiler.compile(parse(sql))),
                           db.registry)
    first_context = ExecutionContext(catalog=db.catalog)
    plan.run(first_context)
    first = first_context.exported_columns()
    second_context = ExecutionContext(catalog=db.catalog)
    plan.run(second_context)
    second = second_context.exported_columns()
    for name in first:
        assert np.array_equal(first[name], second[name])


# ---------------------------------------------------------------------------
# Both compiled variants against the interpreter, shape by shape
# ---------------------------------------------------------------------------

#: Statement shape -> (text, how many of (low, high, dec bound) it binds).
_SHAPES = {
    "between": ("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", 2),
    "at_least": ("SELECT objid FROM p WHERE ra >= ?", 1),
    "below": ("SELECT objid FROM p WHERE ra < ?", 1),
    "two_predicates": ("SELECT objid FROM p WHERE ra BETWEEN ? AND ? AND dec < ?", 3),
    "star": ("SELECT * FROM p WHERE ra BETWEEN ? AND ?", 2),
    "two_columns": ("SELECT dec, objid FROM p WHERE ra BETWEEN ? AND ?", 2),
    "aggregate": ("SELECT count(*), sum(dec), avg(objid) FROM p WHERE ra BETWEEN ? AND ?", 2),
    "limit": ("SELECT objid, ra FROM p WHERE ra BETWEEN ? AND ? LIMIT 7", 2),
}

_ranges = st.one_of(
    st.tuples(st.floats(1.0, 350.0), st.floats(0.01, 30.0)).map(lambda r: (r[0], r[0] + r[1])),
    st.floats(1.0, 350.0).map(lambda low: (low, low)),  # empty: no value is hit exactly
    st.just((400.0, 500.0)),  # above the domain: empty, the projected dtypes survive
    st.just((-50.0, -10.0)),  # below it: empty alike, on adaptive and plain columns
)
_shape_queries = st.lists(
    st.tuples(st.sampled_from(sorted(_SHAPES)), _ranges, st.floats(-90.0, 90.0)),
    min_size=1,
    max_size=6,
)


def _exported(run, database):
    """What one executor exports: ordered (name, dtype, values) triples and scalars."""
    context = ExecutionContext(catalog=database.catalog)
    run(context)
    columns = context.exported_columns()
    return (
        [(name, column.dtype, column.tolist()) for name, column in columns.items()],
        dict(context.scalars),
    )


@pytest.mark.parametrize("organisation", [None, "segmentation", "replication", "unsegmented"])
@given(queries=_shape_queries)
@example(queries=[("two_columns", (-50.0, -10.0), 0.0), ("limit", (-50.0, -10.0), 0.0)])
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_both_compiled_variants_match_the_interpreter(organisation, queries):
    interpreted_db, full_db, delta_free_db = (_build_database(organisation) for _ in range(3))
    for shape, (low, high), dec in queries:
        sql, arity = _SHAPES[shape]
        values = (low, high, dec)[:arity] if arity != 1 else (low,)
        program = interpreted_db.optimizer.optimize(
            interpreted_db.compiler.compile(parse(sql, placeholders=True))
        )
        arguments = {f"__p{index}": value for index, value in enumerate(values)}
        full = full_db.prepare_statement(sql)
        delta_free = delta_free_db.prepare_statement(sql)
        assert len(delta_free.delta_free) < len(full.compiled)

        expected = _exported(
            lambda ctx: Interpreter(interpreted_db.registry).run(program, ctx, arguments),
            interpreted_db,
        )
        if arity != 1 and high < 0.0:  # entirely below the domain: empty, dtypes intact
            assert [column[1:] for column in expected[0]] == [
                (interpreted_db.catalog.column("p", name).dtype, [])
                for name, _, _ in expected[0]
            ]
        assert expected == _exported(
            lambda ctx: full.compiled.execute_bound(ctx, full.slots, values), full_db
        )
        assert expected == _exported(
            lambda ctx: delta_free.delta_free.execute_bound(
                ctx, delta_free.delta_free_slots, values
            ),
            delta_free_db,
        )
    if organisation is not None:
        histories = [
            [_stats_tuple(stats) for stats in db.adaptive_handle("p", "ra").adaptive.history]
            for db in (interpreted_db, full_db, delta_free_db)
        ]
        assert histories[0] == histories[1] == histories[2]
        delta_free_db.adaptive_handle("p", "ra").adaptive.check_invariants()


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

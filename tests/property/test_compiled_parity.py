"""Property tests: the compiled lowering and Interpreter.run answer alike.

The slot-based ``CompiledPlan`` runs straight-line lowerings only; the
tree-walking interpreter runs the paper's Figure-1 plan, the segment
optimizer's barrier/redo/exit iterator rewrite included, and is the oracle.

A prepared plan carries one compiled plan: the statement's lowering
(``SQLCompiler.lower``).  The interpreter runs the full, optimized Figure-1
plan of the same statement as the oracle: on a delta-free table and beside pending inserts (made
before and after the column turns adaptive) and deletes, the lowering must
export what ``Interpreter.run`` exports, with equal ``QueryStats`` histories,
for every built-in organisation and every statement shape.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.accounting import QueryStats
from repro.engine.database import Database
from repro.engine.execution import ExecutionContext
from repro.sql.parser import parse
from repro.storage.bat import BAT
from repro.util.units import KB
from tests.support import operators
from tests.support.figure1 import deletion_bat
from tests.support.interpreter import Interpreter

#: QueryStats fields compared across executors (wall-clock timings excluded).
_STATS_FIELDS = [
    field for field in QueryStats.__dataclass_fields__ if not field.endswith("_seconds")
]


# ---------------------------------------------------------------------------
# Engine plans: the lowering against the Figure-1 plan, end to end
# ---------------------------------------------------------------------------

_N_ROWS = 4_000
_PENDING = 60  # rows inserted on each side of enable_adaptive


def _rows(rng: np.random.Generator, first_oid: int, count: int) -> dict[str, np.ndarray]:
    return {
        "objid": np.arange(first_oid, first_oid + count, dtype=np.int64),
        "ra": rng.uniform(0.0, 360.0, count),
        "dec": rng.uniform(-90.0, 90.0, count).astype(np.float32),
    }


def _build_database(organisation: str | None = "segmentation", pending: bool = False) -> Database:
    """``pending``: inserts before and after the column turns adaptive, then deletes.

    The adaptive column is built over the early inserts, which stay in the
    insert delta too — the Figure-1 plan's ``kunion`` of its hits with the
    delta's then sees overlapping oids.  The deletes hit loaded, early and
    late rows alike.
    """
    rng = np.random.default_rng(23)
    db = Database()
    db.create_table("p", {"objid": "int64", "ra": "float64", "dec": "float32"})
    db.bulk_load("p", _rows(rng, 0, _N_ROWS))
    if pending:
        db.insert("p", _rows(rng, _N_ROWS, _PENDING))
    if organisation is not None:
        db.enable_adaptive("p", "ra", strategy=organisation, model="apm",
                           m_min=1 * KB, m_max=4 * KB, seed=1)
    if pending:
        db.insert("p", _rows(rng, _N_ROWS + _PENDING, _PENDING))
        allocated = _N_ROWS + 2 * _PENDING
        db.delete("p", np.concatenate((
            rng.choice(allocated, size=400, replace=False),
            [_N_ROWS + 1, _N_ROWS + _PENDING + 1],  # one early and one late insert
        )))
    return db


def _stats_tuple(stats: QueryStats) -> tuple:
    return tuple(getattr(stats, field) for field in _STATS_FIELDS)


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
    plan = db.prepare_statement(sql).compiled
    first_context = ExecutionContext(catalog=db.catalog)
    plan.execute_bound(first_context, (), ())
    first = first_context.exported_columns()
    second_context = ExecutionContext(catalog=db.catalog)
    plan.execute_bound(second_context, (), ())
    second = second_context.exported_columns()
    for name in first:
        assert np.array_equal(first[name], second[name])


# ---------------------------------------------------------------------------
# The compiled lowering against the interpreter's Figure-1 plan, shape by shape
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
    "all_rows": ("SELECT objid, ra FROM p", 0),
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


_ORGANISATIONS = [None, "segmentation", "replication", "unsegmented"]


@pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "pending-writes"])
@pytest.mark.parametrize("organisation", _ORGANISATIONS)
@given(queries=_shape_queries)
@example(queries=[("two_columns", (-50.0, -10.0), 0.0), ("limit", (-50.0, -10.0), 0.0)])
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_lowering_matches_the_interpreter(organisation, pending, queries):
    interpreted_db, compiled_db = (_build_database(organisation, pending) for _ in range(2))
    for shape, (low, high), dec in queries:
        sql, arity = _SHAPES[shape]
        values = (low, high, dec)[:arity] if arity != 1 else (low,)
        program = interpreted_db.optimizer.optimize(
            interpreted_db.compiler.compile(parse(sql, placeholders=True))
        )
        arguments = {f"__p{index}": value for index, value in enumerate(values)}
        prepared = compiled_db.prepare_statement(sql)
        assert sum(prepared.compiled.opcode_counts.values()) < len(program)

        expected = _exported(
            lambda ctx: Interpreter(interpreted_db.registry).run(program, ctx, arguments),
            interpreted_db,
        )
        if arity > 1 and high < 0.0:  # entirely below the domain: empty, dtypes intact
            assert [column[1:] for column in expected[0]] == [
                (interpreted_db.catalog.column("p", name).dtype, [])
                for name, _, _ in expected[0]
            ]
        assert expected == _exported(
            lambda ctx: prepared.compiled.execute_bound(ctx, prepared.slots, values),
            compiled_db,
        )
    if organisation is not None:
        histories = [
            [_stats_tuple(stats) for stats in db.adaptive_handle("p", "ra").adaptive.history]
            for db in (interpreted_db, compiled_db)
        ]
        assert histories[0] == histories[1]
        compiled_db.adaptive_handle("p", "ra").adaptive.check_invariants()


@pytest.mark.parametrize("organisation", _ORGANISATIONS)
def test_beside_pending_writes_a_select_without_where_keeps_nan_rows(organisation):
    """The lowering's ``sql.tid`` step against the oracle's merge and difference.

    A pending insert whose float values are NaN is a live row like any other,
    and a deleted row is gone, however the predicate column is organised.
    """
    interpreted_db, compiled_db = (_build_database(organisation, pending=True) for _ in range(2))
    first = _N_ROWS + 2 * _PENDING
    for database in (interpreted_db, compiled_db):
        rows = _rows(np.random.default_rng(7), first, 3)
        rows["ra"][1] = rows["dec"][1] = np.nan
        database.insert("p", rows)
        database.delete("p", [first + 2])
    sql = "SELECT objid, ra, dec FROM p"
    program = interpreted_db.optimizer.optimize(interpreted_db.compiler.compile(parse(sql)))
    prepared = compiled_db.prepare_statement(sql)
    assert "sql.tid" in prepared.compiled.opcode_counts
    expected, _ = _exported(
        lambda ctx: Interpreter(interpreted_db.registry).run(program, ctx), interpreted_db
    )
    got, _ = _exported(
        lambda ctx: prepared.compiled.execute_bound(ctx, prepared.slots, ()), compiled_db
    )
    assert [column[:2] for column in got] == [column[:2] for column in expected]
    assert [column[0] for column in got] == ["objid", "ra", "dec"]
    for (_, _, values), (_, _, oracle) in zip(got, expected):
        np.testing.assert_array_equal(values, oracle)  # NaN equals NaN here
    objids, ras = got[0][2], got[1][2]
    assert first + 1 in objids and first + 2 not in objids
    assert np.isnan(ras[objids.index(first + 1)])


@pytest.mark.parametrize("organisation", _ORGANISATIONS[1:])
def test_beside_pending_writes_the_oracle_merges_overlapping_oids(organisation, monkeypatch):
    """The pending-writes case above reaches ``kunion``'s hashing fall-through."""
    database = _build_database(organisation, pending=True)
    overlaps: list[int] = []
    kunion = operators.kunion

    def spy(left: BAT, right: BAT) -> BAT:
        if left.count and right.count:
            overlaps.append(np.intersect1d(left.head, right.head).size)
        return kunion(left, right)

    monkeypatch.setattr(operators, "kunion", spy)
    program = database.optimizer.optimize(
        database.compiler.compile(parse("SELECT objid FROM p WHERE ra BETWEEN 0.0 AND 360.0"))
    )
    context = ExecutionContext(catalog=database.catalog)
    Interpreter(database.registry).run(program, context)
    assert max(overlaps) == _PENDING  # the early inserts: adaptive hits and delta hits
    expected = sorted(set(range(_N_ROWS + 2 * _PENDING)) - set(
        deletion_bat(database.catalog.table("p")).tail.tolist()
    ))
    assert sorted(context.exported_columns()["objid"].tolist()) == expected


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

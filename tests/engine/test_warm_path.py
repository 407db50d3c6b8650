"""The warm single-query path's contract, door by door.

A warm query reaches the executor through four doors: a prepared handle, a
literal statement whose masked text is cached, ``Cursor.execute`` with
parameters, and a wave.  Whatever the executor's frame costs, each door must
keep what it reports: the cache level, the lowering's opcode counters, the
selection / adaptation seconds of the record its select appended, one record
per single query, and result columns that share no memory with the column's
storage.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.util.units import KB

SQL = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
LITERAL = "SELECT objid FROM p WHERE ra BETWEEN {!r} AND {!r}"
N_ROWS = 20_000

#: The lowering of ``SQL`` on an adaptive column: eight callees, one run each.
LOWERING = dict.fromkeys(
    ["bpm.take", "bpm.select", "sql.live", "sql.bind", "algebra.projection",
     "sql.resultSet", "sql.rsColumn", "sql.exportResult"], 1,
)

#: Ranges of ~10 rows, a range no row falls into, and one past the domain.
RANGES = [(10.0, 10.2), (123.4, 123.6), (200.0, 200.0), (400.0, 410.0)]


@pytest.fixture
def connection():
    rng = np.random.default_rng(7)
    ra = rng.uniform(0.0, 360.0, N_ROWS)
    connection = repro.connect()
    admin = connection.admin
    admin.create_table("p", {"objid": "int64", "ra": "float64"})
    admin.bulk_load("p", {"objid": np.arange(N_ROWS, dtype=np.int64), "ra": ra})
    admin.enable_adaptive("p", "ra", strategy="segmentation", model="apm",
                          m_min=2 * KB, m_max=8 * KB)
    statement = connection.prepare(SQL)
    for low in rng.uniform(0.0, 359.0, 400):  # warm: the column has adapted
        statement.execute((low, low + 1.0))
    yield connection
    connection.close()


def expected(connection, low: float, high: float) -> list[int]:
    """The brute-force answer over the stored column: objids with ra in ``[low, high]``."""
    ra = connection.database.catalog.column("p", "ra").bind(0).tail
    return np.flatnonzero((ra >= low) & (ra <= high)).tolist()


def prepared(connection, low, high):
    return connection.prepare(SQL).execute((low, high))


def masked_literal(connection, low, high):
    cursor = connection.cursor()
    cursor.execute(LITERAL.format(low + 1.0, high + 1.0))  # the masked text is cached now
    return cursor.execute(LITERAL.format(low, high)).result


def cursor_parameters(connection, low, high):
    return connection.cursor().execute(SQL, (low, high)).result


SINGLE_DOORS = {
    "prepared": (prepared, "prepared"),
    "masked": (masked_literal, "masked"),
    "cursor_parameters": (cursor_parameters, "prepared"),
}


def adaptive(connection):
    return connection.admin.adaptive_handle("p", "ra").adaptive


@pytest.mark.parametrize("door", sorted(SINGLE_DOORS))
@pytest.mark.parametrize("bounds", RANGES)
def test_a_single_query_reports_its_own_work(connection, door, bounds):
    run, level = SINGLE_DOORS[door]
    records = adaptive(connection).history.records
    recorded = len(records)
    result = run(connection, *bounds)
    added = records[recorded:]
    if door == "masked":
        added = added[1:]  # the first statement warmed the masked text
    assert [record.batch_size for record in added] == [1]
    record = added[0]
    assert result.cache_level == level
    assert result.profile.opcode_counts == LOWERING
    # The ledger's before/after difference: equal up to float rounding.
    for seconds, recorded_seconds in [
        (result.selection_seconds, record.selection_seconds),
        (result.adaptation_seconds, record.adaptation_seconds),
    ]:
        assert seconds == pytest.approx(recorded_seconds, rel=1e-9, abs=1e-12)
    assert sorted(result.columns["objid"].tolist()) == expected(connection, *bounds)


def test_a_wave_member_reports_its_share(connection):
    database = connection.database
    plan = database.prepare_statement(SQL)
    records = adaptive(connection).history.records
    recorded = len(records)
    results = database.execute_wave([(plan, bounds) for bounds in RANGES])
    (record,) = records[recorded:]
    assert record.batch_size == len(RANGES)
    for result, bounds in zip(results, RANGES):
        assert result.cache_level == "batched"
        assert result.profile.opcode_counts == {}
        share = 1.0 / len(RANGES)
        assert result.selection_seconds == pytest.approx(record.selection_seconds * share)
        assert result.adaptation_seconds == pytest.approx(record.adaptation_seconds * share)
        assert sorted(result.columns["objid"].tolist()) == expected(connection, *bounds)


def wave_member(connection, low, high):
    database = connection.database
    plan = database.prepare_statement(SQL)
    return database.execute_wave([(plan, (low, high)), (plan, (low + 1.0, high + 1.0))])[0]


@pytest.mark.parametrize("door", [*sorted(SINGLE_DOORS), "wave_member"])
def test_result_columns_share_nothing_with_storage(connection, door):
    run = wave_member if door == "wave_member" else SINGLE_DOORS[door][0]
    for bounds in RANGES:
        column = run(connection, *bounds).columns["objid"]
        column[:] = -1  # a no-op on an empty result, which must not alias either
    for bounds in RANGES:
        for again in (prepared, cursor_parameters, wave_member):
            answer = again(connection, *bounds).columns["objid"]
            assert sorted(answer.tolist()) == expected(connection, *bounds), (door, again)

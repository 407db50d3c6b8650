"""``LIMIT n`` returns at most ``n`` rows — through every text door, on every organisation.

The compiler cuts the candidate list with one ``algebra.slice`` before the
projection joins, so nothing downstream trims anything: the limited rows must
be a subset of the unlimited answer (which rows is the organisation's
business), every projected column has the same length, and ``LIMIT 0`` is an
empty result that still names its columns.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
import repro.aio
from repro.core.strategy import available_strategies
from repro.engine.database import Database
from repro.server import ReproServer
from repro.sql import parse
from repro.util.units import KB

ROWS = 5_000
UNLIMITED = "SELECT objid, ra FROM p WHERE ra BETWEEN 10.0 AND 30.0"


def build(organisation: str | None, pending: bool) -> Database:
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load(
        "p",
        {
            "objid": np.arange(ROWS, dtype=np.int64),
            "ra": np.random.default_rng(41).uniform(0.0, 360.0, ROWS),
        },
    )
    if organisation is not None:
        database.enable_adaptive(
            "p", "ra", strategy=organisation, model="apm", m_min=1 * KB, m_max=4 * KB
        )
    if pending:
        database.insert(
            "p", {"objid": np.arange(ROWS, ROWS + 3), "ra": np.array([12.0, 20.0, 200.0])}
        )
        database.delete("p", database.execute(UNLIMITED).column("objid")[:2])
    return database


def rows_of(result) -> set[tuple[int, float]]:
    return set(zip(result.column("objid").tolist(), result.column("ra").tolist()))


@pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "pending-deltas"])
@pytest.mark.parametrize("organisation", [None, *available_strategies()])
class TestLimit:
    def test_text_execute_returns_at_most_n_rows(self, organisation, pending):
        database = build(organisation, pending)
        everything = database.execute(UNLIMITED)
        assert everything.row_count > 5
        limited = database.execute(UNLIMITED + " LIMIT 5")
        assert limited.row_count == 5 and len(limited.column("ra")) == 5
        assert rows_of(limited) <= rows_of(everything)
        # A limit beyond the answer changes nothing; a different limit is a different plan.
        assert rows_of(database.execute(UNLIMITED + " LIMIT 100000")) == rows_of(everything)
        assert database.execute(UNLIMITED + " LIMIT 2").row_count == 2

    def test_limit_zero_is_empty_with_the_right_columns(self, organisation, pending):
        result = build(organisation, pending).execute(UNLIMITED + " LIMIT 0")
        assert result.row_count == 0
        assert result.column_names == ["objid", "ra"]
        assert result.column("objid").dtype == np.int64

    def test_cursor_and_execute_many_honour_it(self, organisation, pending):
        database = build(organisation, pending)
        cursor = repro.connect(database).cursor()
        cursor.execute(UNLIMITED + " LIMIT 5")
        assert cursor.rowcount == 5 and len(cursor.fetchall()) == 5
        # Beside batchable wave-mates a LIMIT statement runs its own plan.
        results = database.execute_many([UNLIMITED, UNLIMITED + " LIMIT 3", UNLIMITED])
        assert [result.row_count for result in results] == [
            results[0].row_count, 3, results[0].row_count
        ]

    def test_aio_client_honours_it(self, organisation, pending):
        async def go() -> tuple[int, int]:
            async with ReproServer(build(organisation, pending), port=0) as server:
                connection = await repro.aio.connect(*server.address)
                limited = await connection.execute(UNLIMITED + " LIMIT 5")
                empty = await connection.execute(UNLIMITED + " LIMIT 0")
                counts = len(limited.fetchall()), len(empty.fetchall())
                await connection.close()
                return counts

        assert asyncio.run(go()) == (5, 0)


def test_limit_compiles_to_one_slice_before_the_projection_joins():
    database = build(None, pending=False)
    plan = database.compiler.compile(parse(UNLIMITED + " LIMIT 5")).render()
    assert plan.count("algebra.slice") == 1
    assert plan.index("algebra.slice") < plan.index("algebra.markT") < plan.index("algebra.join")
    assert "algebra.slice" not in database.explain(UNLIMITED)


def test_a_limit_never_changes_an_aggregate():
    database = build("segmentation", pending=False)
    count = database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 10.0 AND 30.0")
    limited = database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 10.0 AND 30.0 LIMIT 5")
    assert limited.scalar("count(*)") == count.scalar("count(*)") > 5

"""Cursor semantics: execute, fetch, description, executemany batching."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.aio
import repro.api as api
from repro.server import serve
from tests.api.conftest import brute_oids

RANGE_SQL = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"


class Driver:
    """One cursor of either class, driven synchronously.

    ``finish`` turns what ``execute*`` returns into the cursor: the identity
    for the blocking cursor, ``loop.run_until_complete`` for the coroutines of
    the wire cursor.  The fetch surface is synchronous on both.
    """

    def __init__(self, cursor, finish):
        self.cursor = cursor
        self._finish = finish

    def execute(self, operation, parameters=None):
        return self._finish(self.cursor.execute(operation, parameters))

    def executemany(self, operation, seq_of_parameters):
        return self._finish(self.cursor.executemany(operation, seq_of_parameters))


@pytest.fixture(params=["Cursor", "AsyncCursor"])
def driver(request, connection):
    """One fresh cursor of each class over the same loaded table ``p``."""
    if request.param == "Cursor":
        yield Driver(connection.cursor(), lambda cursor: cursor)
        return
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(serve(connection.database, port=0))
    remote = loop.run_until_complete(repro.aio.connect(*server.address))
    try:
        yield Driver(remote.cursor(), loop.run_until_complete)
    finally:
        loop.run_until_complete(remote.close())
        loop.run_until_complete(server.stop())
        loop.close()


class TestFetchSemantics:
    """One table of fetch behaviour, held against both cursor classes."""

    def test_one_definition_serves_both_classes(self, request, driver):
        cls = type(driver.cursor)
        assert cls.__name__ in request.node.name
        assert cls in (api.Cursor, repro.aio.AsyncCursor)
        own = {name for name in vars(cls) if not name.startswith("__")}
        assert own <= {"execute", "executemany", "profile"}
        assert cls.fetchone is api.Cursor.fetchone is repro.aio.AsyncCursor.fetchone

    def test_fetchone_exhaustion_and_iteration(self, driver):
        cursor = driver.execute(RANGE_SQL, (100.0, 101.0))
        assert cursor is driver.cursor
        count = cursor.rowcount
        seen = 0
        while cursor.fetchone() is not None:
            seen += 1
        assert seen == count
        assert cursor.fetchone() is None

        driver.execute(RANGE_SQL, (100.0, 101.0))
        assert len(list(cursor)) == count

    def test_fetchmany_uses_arraysize(self, driver):
        cursor = driver.execute(RANGE_SQL, (0.0, 360.0))
        assert cursor.arraysize == 1
        assert len(cursor.fetchmany()) == 1
        cursor.arraysize = 5
        assert len(cursor.fetchmany()) == 5
        assert len(cursor.fetchmany(2)) == 2
        assert cursor.fetchmany(0) == []

    def test_description_and_rowcount(self, driver, ra_values):
        cursor = driver.cursor
        assert cursor.description is None and cursor.rowcount == -1
        assert cursor.result is None and cursor.cache_level is None
        driver.execute("SELECT objid, ra FROM p WHERE ra BETWEEN ? AND ?", (10.0, 20.0))
        assert [entry[:2] for entry in cursor.description] == [
            ("objid", "int64"),
            ("ra", "float64"),
        ]
        assert all(len(entry) == 7 for entry in cursor.description)
        assert cursor.rowcount == len(brute_oids(ra_values, 10.0, 20.0))
        assert cursor.result is cursor.results[-1]
        assert cursor.cache_level == cursor.result.cache_level

    def test_scalar_result_fetches_one_tuple(self, driver, ra_values):
        cursor = driver.execute(
            "SELECT count(*) FROM p WHERE ra BETWEEN ? AND ?", (10.0, 20.0)
        )
        assert cursor.description == [("count(*)", "float64", None, 8, None, None, None)]
        assert cursor.rowcount == 1
        expected = (float(len(brute_oids(ra_values, 10.0, 20.0))),)
        assert cursor.fetchone() == expected
        assert cursor.fetchone() is None
        assert cursor.fetchmany(3) == [] and cursor.fetchall() == []
        driver.execute("SELECT count(*) FROM p WHERE ra BETWEEN ? AND ?", (10.0, 20.0))
        assert cursor.fetchall() == [expected]

    def test_multi_aggregate_row_order_matches_description(self, driver):
        cursor = driver.execute(
            "SELECT count(*), min(ra), max(ra) FROM p WHERE ra BETWEEN ? AND ?",
            (0.0, 360.0),
        )
        labels = [entry[0] for entry in cursor.description]
        row = cursor.fetchone()
        assert labels == ["count(*)", "min(ra)", "max(ra)"]
        assert len(row) == 3 and row[1] <= row[2]

    def test_interleaved_fetches_across_an_executemany(self, driver, ra_values):
        """fetchone / fetchmany / fetchall walk one row stream that crosses
        result boundaries (an empty member included) without loss or repeat."""
        bindings = [(10.0, 10.5), (500.0, 501.0), (15.0, 15.5), (300.0, 300.5)]
        cursor = driver.executemany(RANGE_SQL, bindings)
        per_member = [brute_oids(ra_values, low, high) for low, high in bindings]
        sizes = [len(member) for member in per_member]
        assert sizes[1] == 0 and min(sizes[0], sizes[2], sizes[3]) >= 2
        assert [result.row_count for result in cursor.results] == sizes
        assert cursor.rowcount == sum(sizes)

        rows = [cursor.fetchone()]
        rows += cursor.fetchmany(sizes[0])  # crosses into the third member
        rows.append(cursor.fetchone())
        tail = cursor.fetchall()
        rows += tail
        assert tail and cursor.fetchone() is None and cursor.fetchmany(2) == []
        fetched = [int(row[0]) for row in rows]
        offset = 0
        for member in per_member:  # input order; order within a member is the engine's
            assert sorted(fetched[offset : offset + len(member)]) == member
            offset += len(member)
        assert offset == len(fetched)

    def test_empty_parameter_sequence_is_executed_but_empty(self, driver):
        cursor = driver.executemany(RANGE_SQL, [])
        assert cursor.rowcount == 0
        assert cursor.description is None
        assert cursor.result is None and cursor.results == []
        assert cursor.fetchone() is None
        assert cursor.fetchmany(4) == []
        assert cursor.fetchall() == []
        assert list(cursor) == []

    def test_fetch_before_execute_raises(self, driver):
        for fetch in (driver.cursor.fetchone, driver.cursor.fetchmany, driver.cursor.fetchall):
            with pytest.raises(api.InterfaceError, match="call execute"):
                fetch()

    def test_closed_cursor_raises(self, driver):
        cursor = driver.execute(RANGE_SQL, (0.0, 1.0))
        cursor.close()
        assert cursor.closed and cursor.description is None and cursor.results == []
        with pytest.raises(api.InterfaceError, match="closed"):
            driver.execute("SELECT objid FROM p WHERE ra < 1.0")
        with pytest.raises(api.InterfaceError, match="closed"):
            driver.executemany(RANGE_SQL, [(0.0, 1.0)])
        for fetch in (cursor.fetchone, cursor.fetchmany, cursor.fetchall):
            with pytest.raises(api.InterfaceError, match="closed"):
                fetch()

    def test_cursor_context_manager(self, driver):
        with driver.cursor as cursor:
            driver.execute("SELECT objid FROM p WHERE ra < ?", (1.0,))
        assert cursor is driver.cursor and cursor.closed

    def test_setinputsizes_are_noops(self, driver):
        driver.cursor.setinputsizes([8, 8])
        driver.cursor.setoutputsize(8, 0)


class TestExecuteAndFetch:
    def test_literal_and_bound_paths_agree(self, connection, ra_values):
        cursor = connection.cursor()
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN 100.0 AND 120.0")
        literal_rows = cursor.fetchall()
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (100.0, 120.0))
        bound_rows = cursor.fetchall()
        assert sorted(literal_rows) == sorted(bound_rows)
        assert sorted(row[0] for row in bound_rows) == brute_oids(ra_values, 100.0, 120.0)

    def test_execute_returns_cursor_for_chaining(self, connection):
        rows = connection.cursor().execute(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (0.0, 360.0)
        ).fetchmany(3)
        assert len(rows) == 3

    def test_cache_level_progression(self, connection):
        cursor = connection.cursor()
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN 5.0 AND 6.0")
        assert cursor.cache_level == "cold"
        for low in (5.0, 7.0):  # the same text again, then a literal variant
            cursor.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND 8.0")
            assert cursor.cache_level == "masked"
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (5.0, 6.0))
        assert cursor.cache_level == "prepared"
        assert cursor.profile is not None and not cursor.profile.cold


class TestExecutemany:
    def test_concatenated_rows_in_input_order(self, connection, ra_values):
        bindings = [(10.0, 20.0), (15.0, 25.0), (300.0, 301.0)]
        cursor = connection.cursor()
        cursor.executemany("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", bindings)
        expected = []
        for low, high in bindings:
            expected.extend(brute_oids(ra_values, low, high))
        # The vectorized batch executor answers overlapping and disjoint
        # same-column ranges alike.
        assert [result.batched for result in cursor.results] == [True, True, True]
        assert cursor.rowcount == len(expected)
        fetched = [int(row[0]) for row in cursor.fetchall()]
        bounds = [set(brute_oids(ra_values, low, high)) for low, high in bindings]
        offset = 0
        for (low, high), members in zip(bindings, bounds):
            chunk = fetched[offset : offset + len(members)]
            assert set(chunk) == members
            offset += len(chunk)

    def test_executemany_matches_literal_results(self, connection, ra_values):
        bindings = [(low, low + 2.0) for low in np.linspace(0.0, 350.0, 12)]
        cursor = connection.cursor()
        cursor.executemany("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", bindings)
        for (low, high), result in zip(bindings, cursor.results):
            assert sorted(int(v) for v in result.column("objid")) == brute_oids(
                ra_values, low, high
            )

    def test_named_style_executemany(self, connection, ra_values):
        cursor = connection.cursor()
        cursor.executemany(
            "SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi",
            [{"lo": 10.0, "hi": 12.0}, {"lo": 11.0, "hi": 13.0}],
        )
        assert cursor.rowcount == len(brute_oids(ra_values, 10.0, 12.0)) + len(
            brute_oids(ra_values, 11.0, 13.0)
        )

    def test_one_bad_binding_fails_before_any_execution(self, connection):
        cursor = connection.cursor()
        history = len(connection.database.query_history)
        with pytest.raises(api.ProgrammingError):
            cursor.executemany(
                "SELECT objid FROM p WHERE ra BETWEEN ? AND ?",
                [(10.0, 20.0), (30.0, 20.0)],  # second violates high >= low
            )
        assert len(connection.database.query_history) == history

    def test_batched_results_report_batched_cache_level(self, connection):
        cursor = connection.cursor()
        cursor.executemany(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?",
            [(10.0, 20.0), (15.0, 25.0)],
        )
        assert [result.cache_level for result in cursor.results] == ["batched", "batched"]
        assert cursor.cache_level == "batched"


"""Cursor semantics: execute, fetch, description, executemany batching."""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from tests.api.conftest import brute_oids


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

    def test_fetchone_exhaustion_and_iteration(self, connection):
        cursor = connection.execute(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (100.0, 101.0)
        )
        count = cursor.rowcount
        seen = 0
        while cursor.fetchone() is not None:
            seen += 1
        assert seen == count
        assert cursor.fetchone() is None

        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (100.0, 101.0))
        assert len(list(cursor)) == count

    def test_fetchmany_uses_arraysize(self, connection):
        cursor = connection.execute(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (0.0, 360.0)
        )
        assert cursor.arraysize == 1
        assert len(cursor.fetchmany()) == 1
        cursor.arraysize = 5
        assert len(cursor.fetchmany()) == 5
        assert len(cursor.fetchmany(2)) == 2

    def test_description_and_rowcount(self, connection, ra_values):
        cursor = connection.execute(
            "SELECT objid, ra FROM p WHERE ra BETWEEN ? AND ?", (10.0, 20.0)
        )
        names = [entry[0] for entry in cursor.description]
        type_codes = [entry[1] for entry in cursor.description]
        assert names == ["objid", "ra"]
        assert type_codes == ["int64", "float64"]
        assert cursor.rowcount == len(brute_oids(ra_values, 10.0, 20.0))

    def test_scalar_result_fetches_one_tuple(self, connection, ra_values):
        cursor = connection.execute(
            "SELECT count(*) FROM p WHERE ra BETWEEN ? AND ?", (10.0, 20.0)
        )
        assert cursor.description[0][0] == "count(*)"
        assert cursor.rowcount == 1
        row = cursor.fetchone()
        assert row == (float(len(brute_oids(ra_values, 10.0, 20.0))),)
        assert cursor.fetchone() is None

    def test_multi_aggregate_row_order_matches_description(self, connection):
        cursor = connection.execute(
            "SELECT count(*), min(ra), max(ra) FROM p WHERE ra BETWEEN ? AND ?",
            (0.0, 360.0),
        )
        labels = [entry[0] for entry in cursor.description]
        row = cursor.fetchone()
        assert labels == ["count(*)", "min(ra)", "max(ra)"]
        assert len(row) == 3 and row[1] <= row[2]

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

    def test_fetch_before_execute_raises(self, connection):
        cursor = connection.cursor()
        with pytest.raises(api.InterfaceError):
            cursor.fetchone()

    def test_closed_cursor_raises(self, connection):
        cursor = connection.cursor()
        cursor.close()
        with pytest.raises(api.InterfaceError):
            cursor.execute("SELECT objid FROM p WHERE ra < 1.0")
        with pytest.raises(api.InterfaceError):
            cursor.fetchall()

    def test_cursor_context_manager(self, connection):
        with connection.cursor() as cursor:
            cursor.execute("SELECT objid FROM p WHERE ra < ?", (1.0,))
        assert cursor.closed

    def test_setinputsizes_are_noops(self, connection):
        cursor = connection.cursor()
        cursor.setinputsizes([8, 8])
        cursor.setoutputsize(8, 0)


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

    def test_empty_parameter_sequence_is_executed_but_empty(self, connection):
        cursor = connection.cursor()
        cursor.executemany("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", [])
        assert cursor.rowcount == 0
        assert cursor.description is None
        assert cursor.fetchone() is None
        assert cursor.fetchall() == []
        assert list(cursor) == []

"""Connection lifecycle, the admin handle, and the PEP 249 module surface."""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.api as api


class TestModuleSurface:
    def test_pep249_module_attributes(self):
        assert api.apilevel == "2.0"
        assert api.threadsafety == 1
        assert api.paramstyle == "qmark"

    def test_exception_hierarchy(self):
        assert issubclass(api.InterfaceError, api.Error)
        assert issubclass(api.DatabaseError, api.Error)
        for exc in (
            api.DataError,
            api.OperationalError,
            api.IntegrityError,
            api.InternalError,
            api.ProgrammingError,
            api.NotSupportedError,
        ):
            assert issubclass(exc, api.DatabaseError)

    def test_top_level_reexports(self):
        assert repro.connect is api.connect
        assert repro.ProgrammingError is api.ProgrammingError
        assert repro.apilevel == api.apilevel
        # The full PEP 249 surface is reachable from the top-level module too.
        for name in ("Warning", "Error", "InterfaceError", "DatabaseError",
                     "DataError", "OperationalError", "IntegrityError",
                     "InternalError", "ProgrammingError", "NotSupportedError"):
            assert getattr(repro, name) is getattr(api, name)


class TestConnectionLifecycle:
    def test_context_manager_closes(self):
        with repro.connect() as conn:
            assert not conn.closed
        assert conn.closed

    def test_close_is_idempotent_but_use_is_not(self):
        conn = repro.connect()
        conn.close()
        conn.close()  # PEP 249: closing twice is fine
        with pytest.raises(api.InterfaceError):
            conn.cursor()
        with pytest.raises(api.InterfaceError):
            conn.prepare("SELECT objid FROM p WHERE ra < ?")
        with pytest.raises(api.InterfaceError):
            conn.commit()
        with pytest.raises(api.InterfaceError):
            conn.admin.table_names()

    def test_cursor_on_closed_connection_is_unusable(self, connection):
        cursor = connection.cursor()
        connection.close()
        with pytest.raises(api.InterfaceError):
            cursor.execute("SELECT objid FROM p WHERE ra < 1.0")

    def test_close_closes_handed_out_cursors(self, connection):
        explicit = connection.cursor()
        shorthand = connection.execute(
            "SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0"
        )
        many = connection.executemany(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?", [(1.0, 2.0), (3.0, 4.0)]
        )
        assert shorthand.results  # holding result sets before the close
        connection.close()
        for cursor in (explicit, shorthand, many):
            assert cursor.closed
        # The convenience cursors released their result sets — close() really
        # ran on them, they are not merely flagged closed via the connection.
        assert shorthand.results == []
        assert many.results == []
        with pytest.raises(api.InterfaceError):
            shorthand.fetchall()

    def test_commit_noop_rollback_unsupported(self, connection):
        connection.commit()
        with pytest.raises(api.NotSupportedError):
            connection.rollback()

    def test_connect_wraps_existing_engine(self, connection, ra_values):
        # Two connections over one engine see the same self-organizing state.
        other = repro.connect(connection.database)
        rows = other.execute("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (0.0, 360.0))
        assert rows.rowcount == ra_values.size
        other.close()
        assert not connection.closed


class TestAdmin:
    def test_ddl_and_data_roundtrip(self):
        with repro.connect() as conn:
            conn.admin.create_table("t", {"a": "int64", "b": "float64"})
            assert conn.admin.table_names() == ["t"]
            conn.admin.bulk_load(
                "t", {"a": np.arange(4, dtype=np.int64), "b": np.ones(4)}
            )
            conn.admin.insert("t", {"a": np.array([9]), "b": np.array([2.0])})
            cursor = conn.execute("SELECT a FROM t WHERE b >= ?", (0.0,))
            assert cursor.rowcount == 5
            conn.admin.delete("t", np.array([0]))
            cursor = conn.execute("SELECT a FROM t WHERE b >= ?", (0.0,))
            assert cursor.rowcount == 4
            conn.admin.drop_table("t")
            assert conn.admin.table_names() == []

    def test_delete_is_idempotent_and_rejects_unallocated_oids(self, connection, ra_values):
        admin = connection.admin
        admin.delete("p", np.array([1, 1]))
        admin.delete("p", np.array([1]))
        for bad in ([ra_values.size], [-1], [0, 10**9]):
            with pytest.raises(api.ProgrammingError, match="outside"):
                admin.delete("p", np.array(bad))
        cursor = connection.execute("SELECT objid FROM p WHERE ra >= ?", (0.0,))
        assert cursor.rowcount == ra_values.size - 1

    def test_errors_are_programming_errors(self, connection):
        with pytest.raises(api.ProgrammingError):
            connection.admin.create_table("p", {"x": "int64"})  # already exists
        with pytest.raises(api.ProgrammingError):
            connection.admin.enable_adaptive("p", "nope")
        with pytest.raises(api.ProgrammingError):
            connection.admin.adaptive_handle("p", "ra")  # not adaptive yet

    def test_adaptive_controls(self, connection):
        handle = connection.admin.enable_adaptive(
            "p", "ra", strategy="segmentation", model="apm"
        )
        assert handle is connection.admin.adaptive_handle("p", "ra")
        connection.admin.disable_adaptive("p", "ra")
        with pytest.raises(api.ProgrammingError):
            connection.admin.adaptive_handle("p", "ra")

    def test_explain_and_stats(self, connection):
        plan = connection.admin.explain("SELECT objid FROM p WHERE ra < 10")
        assert plan.startswith("function user.")
        stats = connection.admin.cache_stats()
        assert stats["total"]["capacity"] == 128

    def test_syntax_error_maps_to_programming_error(self, connection):
        with pytest.raises(api.ProgrammingError):
            connection.admin.explain("SELEKT objid FROM p")


class TestAdminCacheStats:
    def test_cache_stats_surface(self, connection):
        cursor = connection.cursor()
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0")
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0")
        cursor.execute("SELECT objid FROM p WHERE ra BETWEEN ? AND ?", (3.0, 4.0))
        stats = connection.admin.cache_stats()
        assert set(stats) == {"batch", "total"}
        # One statement: cold, then a hit for the repeated text, then a hit for
        # the ``?`` text the literal text masks down to.
        assert (stats["total"]["hits"], stats["total"]["misses"]) == (2, 1)
        assert stats["total"]["size"] == 1

    def test_cache_stats_batch_section(self, connection):
        before = connection.admin.cache_stats()["batch"]
        assert before["waves"] == 0 and before["batched_queries"] == 0
        cursor = connection.cursor()
        cursor.executemany(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?",
            [(1.0, 2.0), (5.0, 6.0), (9.0, 10.0)],
        )
        cursor.executemany(
            "SELECT count(*) FROM p WHERE ra BETWEEN ? AND ?",  # aggregates don't batch
            [(1.0, 2.0), (5.0, 6.0)],
        )
        stats = connection.admin.cache_stats()["batch"]
        assert stats["waves"] == 1
        assert stats["batched_queries"] == 3
        assert stats["fallback_queries"] == 2  # the aggregate members
        assert stats["wave_size"] == {"min": 3, "max": 3, "mean": 3.0}
        assert stats["wave_size_histogram"]["2-4"] == 1

    def test_cache_stats_requires_open_connection(self, connection):
        connection.close()
        with pytest.raises(api.InterfaceError):
            connection.admin.cache_stats()

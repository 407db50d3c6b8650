"""Unit tests for stored columns, column stores and the catalog."""

import numpy as np
import pytest

from repro.storage.catalog import Catalog, TableSchema
from repro.storage.column import ColumnStore, StoredColumn


class TestStoredColumn:
    def test_bind_levels(self):
        column = StoredColumn("p", "ra", np.float64)
        column.bulk_load(np.array([1.0, 2.0, 3.0]))
        assert column.bind(0).count == 3
        assert column.bind(1).count == 0
        assert column.bind(2).count == 0
        with pytest.raises(ValueError):
            column.bind(3)

    def test_append_goes_to_insert_delta(self):
        column = StoredColumn("p", "ra", np.float64)
        column.bulk_load(np.array([1.0, 2.0]))
        column.append(np.array([3.0]), start_oid=2)
        assert column.bind(0).count == 2
        assert column.bind(1).count == 1
        assert column.bind(1).head.tolist() == [2]

    def test_the_update_delta_is_an_empty_bat_of_the_column_dtype(self):
        column = StoredColumn("p", "ra", np.float32)
        for write in (
            lambda: column.bulk_load(np.array([1.0, 2.0], dtype=np.float32)),
            lambda: column.append(np.array([3.0], dtype=np.float32), start_oid=2),
        ):
            write()
            updates = column.bind(2)
            assert updates.count == 0
            assert updates.tail.dtype == np.dtype(np.float32)
            assert updates.name == "sys_p_ra_2"

    def test_merge_deltas_is_a_copy_of_loaded_plus_inserted(self):
        column = StoredColumn("p", "ra", np.float64)
        column.bulk_load(np.array([1.0, 2.0, 3.0]))
        column.append(np.array([4.0]), start_oid=3)
        merged = column.merge_deltas()
        assert merged.tolist() == [1.0, 2.0, 3.0, 4.0]
        merged[:] = 0.0
        assert column.merge_deltas().tolist() == [1.0, 2.0, 3.0, 4.0]
        assert column.bind(1).merged.tail.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_three_bind_views_share_one_dense_buffer(self):
        column = StoredColumn("p", "ra", np.float64)
        column.bulk_load(np.array([1.0, 2.0, 3.0]))
        column.append(np.array([4.0, 5.0]), start_oid=3)
        column.append(np.array([6.0]), start_oid=5)
        persistent, inserts = column.bind(0), column.bind(1)
        merged = inserts.merged
        assert persistent.merged is merged
        for view in (persistent, inserts, merged):
            assert view.is_void_head
            assert np.shares_memory(view.tail, column._buffer)
        assert (persistent.hseqbase, inserts.hseqbase, merged.hseqbase) == (0, 3, 0)
        assert persistent.tail.tolist() == [1.0, 2.0, 3.0]
        assert inserts.tail.tolist() == [4.0, 5.0, 6.0]
        assert merged.tail.tolist() == column.merge_deltas().tolist()

    def test_append_must_continue_the_column_densely(self):
        column = StoredColumn("p", "ra", np.float64)
        column.bulk_load(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="densely"):
            column.append(np.array([3.0]), start_oid=7)

    def test_buffer_regrowth_keeps_earlier_views_valid(self):
        column = StoredColumn("p", "v", np.int64)
        loaded = np.arange(8)
        column.bulk_load(loaded)
        column.append(np.array([8]), start_oid=8)
        before = column.bind(1).merged
        snapshot = before.tail.copy()
        buffers = {id(column._buffer)}
        for start in range(9, 10_009, 500):
            column.append(np.arange(start, start + 500), start_oid=start)
            buffers.add(id(column._buffer))
        assert 2 < len(buffers) < 8  # the delta's room doubles: a handful of regrowths
        assert before.tail.tolist() == snapshot.tolist()
        assert loaded.tolist() == list(range(8))  # the caller's array is never written
        assert column.bind(1).merged.tail.tolist() == list(range(10_009))

    def test_headroom_follows_the_delta_not_the_column(self):
        column = StoredColumn("p", "v", np.int64)
        column.bulk_load(np.arange(100_000))
        column.append(np.array([7]), start_oid=100_000)
        assert column._buffer.size < 102_000  # one pending row must not double the column
        for start in range(100_001, 140_001, 4_000):
            column.append(np.arange(start, start + 4_000), start_oid=start)
            pending = column.bind(1).count
            assert column._buffer.size <= 100_000 + 2 * pending + 1024

    def test_bulk_load_resets_pending_deltas(self):
        column = StoredColumn("p", "v", np.int64)
        column.bulk_load(np.arange(3))
        column.append(np.array([3]), start_oid=3)
        column.bulk_load(np.arange(5))
        assert not column.has_deltas
        assert column.merge_deltas().tolist() == [0, 1, 2, 3, 4]


class TestColumnStore:
    def _store(self) -> ColumnStore:
        store = ColumnStore("p")
        store.add_column("objid", np.int64)
        store.add_column("ra", np.float64)
        store.bulk_load({"objid": np.arange(4), "ra": np.array([1.0, 2.0, 3.0, 4.0])})
        return store

    def test_bulk_load_and_row_count(self):
        store = self._store()
        assert store.row_count == 4

    def test_duplicate_column_rejected(self):
        store = ColumnStore("p")
        store.add_column("ra", np.float64)
        with pytest.raises(ValueError):
            store.add_column("ra", np.float64)

    def test_unknown_column_lookup(self):
        with pytest.raises(KeyError):
            self._store().column("dec")

    def test_bulk_load_validates_shape(self):
        store = ColumnStore("p")
        store.add_column("a", np.int32)
        store.add_column("b", np.int32)
        with pytest.raises(ValueError):
            store.bulk_load({"a": np.arange(3), "b": np.arange(2)})
        with pytest.raises(ValueError):
            store.bulk_load({"a": np.arange(3)})
        with pytest.raises(ValueError):
            store.bulk_load({"a": np.arange(3), "b": np.arange(3), "c": np.arange(3)})

    def test_insert_appends_rows(self):
        store = self._store()
        store.insert({"objid": np.array([100]), "ra": np.array([9.0])})
        assert store.row_count == 5
        assert store.column("ra").bind(1).count == 1

    def test_insert_validates_shape_and_leaves_no_trace(self):
        store = self._store()
        with pytest.raises(ValueError, match="every column"):
            store.insert({"ra": np.array([9.0])})
        with pytest.raises(ValueError, match="differ in length"):
            store.insert({"objid": np.array([100, 101]), "ra": np.array([9.0])})
        assert store.row_count == 4
        assert store.has_deltas is False
        assert all(column.bind(1).count == 0 for column in store.columns.values())

    def test_delete_marks_oids(self):
        store = self._store()
        store.delete(np.array([0, 2]))
        assert store.row_count == 2
        assert store.live_oids().tolist() == [1, 3]

    def test_live_oids_follow_inserts_and_deletes(self):
        store = self._store()
        assert store.live_oids().tolist() == [0, 1, 2, 3]
        store.insert({"objid": np.array([100, 101]), "ra": np.array([9.0, np.nan])})
        assert store.live_oids().tolist() == [0, 1, 2, 3, 4, 5]
        store.delete(np.array([4, 0]))
        assert store.live_oids().tolist() == [1, 2, 3, 5]
        assert store.live_oids().dtype == np.int64

    def test_delete_is_idempotent_sorted_and_range_checked(self):
        store = self._store()
        store.insert({"objid": np.array([100]), "ra": np.array([9.0])})
        store.delete(np.array([3, 1, 1]))
        store.delete(np.array([1, 4]))  # 1 again, plus the inserted row
        assert np.flatnonzero(~store.live_mask).tolist() == [1, 3, 4]
        assert store.live_oids().tolist() == [0, 2]
        assert store.row_count == 2
        for bad in ([99], [-1], [5], [0, 99]):
            with pytest.raises(ValueError, match="outside"):
                store.delete(np.array(bad))
        assert store.row_count == 2  # a rejected delete leaves no trace
        store.delete(np.empty(0, dtype=np.int64))
        assert np.flatnonzero(~store.live_mask).tolist() == [1, 3, 4]

    def test_has_deltas_is_a_field_kept_by_every_write_path(self):
        store = self._store()
        assert store.has_deltas is False
        store.delete(np.empty(0, dtype=np.int64))
        assert store.has_deltas is False
        for write in (
            lambda s: s.insert({"objid": np.array([7]), "ra": np.array([7.0])}),
            lambda s: s.delete(np.array([2])),
        ):
            fresh = self._store()
            write(fresh)
            assert fresh.has_deltas is True
            # No write fills the update delta: level 2 stays the empty BAT.
            assert fresh.column("ra").bind(2).count == 0
            fresh.bulk_load({"objid": np.arange(2), "ra": np.array([1.0, 2.0])})
            assert fresh.has_deltas is False
            assert fresh.row_count == 2


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        schema = catalog.create_table("p", {"objid": np.int64, "ra": np.float64})
        assert schema.column_names == ("objid", "ra")
        assert catalog.table_names == ["p"]
        assert catalog.schema("p").dtype_of("ra") == np.dtype(np.float64)
        assert isinstance(catalog.column("p", "ra"), StoredColumn)

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table("p", {"ra": np.float64})
        with pytest.raises(ValueError):
            catalog.create_table("p", {"ra": np.float64})

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Catalog().create_table("p", {})

    def test_unknown_lookups(self):
        catalog = Catalog()
        with pytest.raises(KeyError):
            catalog.table("missing")
        with pytest.raises(KeyError):
            catalog.schema("missing")

    def test_drop_table_forgets_the_table(self):
        catalog = Catalog()
        catalog.create_table("p", {"ra": np.float64})
        catalog.drop_table("p")
        assert catalog.table_names == []
        with pytest.raises(KeyError):
            catalog.column("p", "ra")

    def test_table_schema_of_helper(self):
        schema = TableSchema.of("t", {"a": "int32", "b": np.float64})
        assert schema.dtype_of("a") == np.dtype("int32")
        with pytest.raises(KeyError):
            schema.dtype_of("c")

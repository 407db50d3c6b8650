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

    def test_update_delta_and_merge(self):
        column = StoredColumn("p", "ra", np.float64)
        column.bulk_load(np.array([1.0, 2.0, 3.0]))
        column.update(np.array([1]), np.array([20.0]))
        merged = column.merge_deltas()
        assert merged.tolist() == [1.0, 20.0, 3.0]

    def test_update_length_mismatch_rejected(self):
        column = StoredColumn("p", "ra", np.float64)
        with pytest.raises(ValueError):
            column.update(np.array([1, 2]), np.array([1.0]))

    def test_size_bytes_counts_all_pieces(self):
        column = StoredColumn("p", "ra", np.float32)
        column.bulk_load(np.zeros(10, dtype=np.float32))
        assert column.size_bytes >= 40

    def test_three_bind_views_share_one_dense_buffer(self):
        column = StoredColumn("p", "ra", np.float64)
        column.bulk_load(np.array([1.0, 2.0, 3.0]))
        column.append(np.array([4.0, 5.0]), start_oid=3)
        column.append(np.array([6.0]), start_oid=5)
        persistent, inserts = column.bind(0), column.bind(1)
        base, merged = inserts.dense_union
        assert base is persistent
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
        before = column.bind(1).dense_union[1]
        snapshot = before.tail.copy()
        buffers = {id(column._buffer)}
        for start in range(9, 10_009, 500):
            column.append(np.arange(start, start + 500), start_oid=start)
            buffers.add(id(column._buffer))
        assert 2 < len(buffers) < 8  # the delta's room doubles: a handful of regrowths
        assert before.tail.tolist() == snapshot.tolist()
        assert loaded.tolist() == list(range(8))  # the caller's array is never written
        assert column.bind(1).dense_union[1].tail.tolist() == list(range(10_009))

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
        column.update(np.array([0]), np.array([9]))
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

    def test_delete_marks_oids(self):
        store = self._store()
        store.delete(np.array([0, 2]))
        assert store.row_count == 2
        assert store.deletion_bat.count == 2

    def test_delete_is_idempotent_sorted_and_range_checked(self):
        store = self._store()
        store.insert({"objid": np.array([100]), "ra": np.array([9.0])})
        store.delete(np.array([3, 1, 1]))
        store.delete(np.array([1, 4]))  # 1 again, plus the inserted row
        assert store.deletion_bat.tail.tolist() == [1, 3, 4]
        assert store.deletion_bat.tail_sorted and store.deletion_bat.reverse().head_sorted
        assert store.row_count == 2
        for bad in ([99], [-1], [5], [0, 99]):
            with pytest.raises(ValueError, match="outside"):
                store.delete(np.array(bad))
        assert store.row_count == 2  # a rejected delete leaves no trace
        store.delete(np.empty(0, dtype=np.int64))
        assert store.deletion_bat.count == 3

    def test_has_deltas_is_a_field_kept_by_every_write_path(self):
        store = self._store()
        assert store.has_deltas is False
        store.delete(np.empty(0, dtype=np.int64))
        store.update("ra", np.empty(0, dtype=np.int64), np.empty(0))
        assert store.has_deltas is False
        for write in (
            lambda s: s.insert({"objid": np.array([7]), "ra": np.array([7.0])}),
            lambda s: s.delete(np.array([2])),
            lambda s: s.update("ra", np.array([0]), np.array([5.0])),
        ):
            fresh = self._store()
            write(fresh)
            assert fresh.has_deltas is True
            fresh.bulk_load({"objid": np.arange(2), "ra": np.array([1.0, 2.0])})
            assert fresh.has_deltas is False and fresh.row_count == 2


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

    def test_drop_table_clears_adaptive_registrations(self):
        catalog = Catalog()
        catalog.create_table("p", {"ra": np.float64})
        catalog.register_adaptive("p", "ra", "segmentation")
        assert catalog.is_adaptive("p", "ra")
        catalog.drop_table("p")
        assert not catalog.is_adaptive("p", "ra")
        assert catalog.table_names == []

    def test_adaptive_registration_validation(self):
        catalog = Catalog()
        catalog.create_table("p", {"ra": np.float64})
        with pytest.raises(KeyError):
            catalog.register_adaptive("p", "dec", "segmentation")
        with pytest.raises(ValueError):
            catalog.register_adaptive("p", "ra", "btree")
        catalog.register_adaptive("p", "ra", "replication")
        assert catalog.adaptive_strategy("p", "ra") == "replication"
        catalog.unregister_adaptive("p", "ra")
        assert catalog.adaptive_strategy("p", "ra") is None

    def test_table_schema_of_helper(self):
        schema = TableSchema.of("t", {"a": "int32", "b": np.float64})
        assert schema.dtype_of("a") == np.dtype("int32")
        with pytest.raises(KeyError):
            schema.dtype_of("c")

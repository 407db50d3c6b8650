"""The tombstone bitmap beside the sorted deletion list.

``ColumnStore`` keeps deletions twice: the sorted, duplicate-free list and a
boolean bitmap over the allocated oids that the live-rows steps gather from.
After any sequence of inserts (past the headroom, too), deletes (repeated, of
pending-insert rows), bulk loads and binds, the two must say the same thing
— and a deletion BAT the oracle's Figure-1 plan has bound must not see a
later delete.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.engine.execution import ExecutionContext
from repro.mal.builder import ProgramBuilder
from repro.mal.modules import default_registry
from repro.mal.program import Const
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnStore
from tests.support.figure1 import deletion_bat
from tests.support.interpreter import Interpreter
from tests.support.operators import kdifference, reverse

writes = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "bulk_load", "bind"]), st.integers(0, 2**16)),
    min_size=1, max_size=30,
)


def _store(rows: int) -> ColumnStore:
    store = ColumnStore("p")
    store.add_column("v", np.int64)
    store.bulk_load({"v": np.arange(rows)})
    return store


def _check(store: ColumnStore, deleted: set[int], allocated: int) -> None:
    bitmap = store._alive
    assert bitmap.size == store.column("v")._buffer.size >= allocated  # one headroom rule
    assert np.flatnonzero(~bitmap).tolist() == sorted(deleted)  # headroom is alive
    assert store._deleted.tolist() == sorted(deleted)
    assert store.row_count == allocated - len(deleted)
    mask = store.live_mask
    assert (mask is None) == (not deleted) and (mask is None or mask is bitmap)
    assert store.live_oids().tolist() == sorted(set(range(allocated)) - deleted)


@seed(20261015)
@given(rows=st.integers(0, 300), stream=writes)
@settings(max_examples=150, deadline=None)
def test_the_bitmap_always_equals_the_deletion_list(rows, stream):
    store = _store(rows)
    allocated, deleted, bound = rows, set(), None
    for kind, draw in stream:
        rng = np.random.default_rng(draw)
        if kind == "insert":  # now and then far past the 1024-row headroom
            count = int(rng.choice([1, 16, 700, 2_500]))
            store.insert({"v": np.arange(allocated, allocated + count)})
            allocated += count
        elif kind == "delete" and allocated:
            # Repeats, re-deletes and the newest (still pending) rows alike.
            oids = rng.integers(max(0, allocated - 40), allocated, 6)
            oids = np.concatenate((oids, rng.integers(0, allocated, 6), oids[:2]))
            store.delete(oids)
            deleted.update(oids.tolist())
        elif kind == "bulk_load":
            allocated, deleted = int(rng.integers(0, 300)), set()
            store.bulk_load({"v": np.arange(allocated)})
        elif kind == "bind":  # a bound deletion BAT keeps the list it was cut with
            bound = (deletion_bat(store), sorted(deleted))
        _check(store, deleted, allocated)
        if bound is not None:
            bat, then = bound
            assert bat.tail.tolist() == then


def test_the_bitmap_is_set_in_place_and_a_bound_deletion_bat_is_a_snapshot():
    store = _store(10)
    store.delete([1])
    mask = store.live_mask
    store.delete([2])
    bound = deletion_bat(store)
    store.delete([3])
    assert store.live_mask is mask  # O(rows deleted): a plan step reads it and lets go
    assert np.flatnonzero(~mask).tolist() == [1, 2, 3]
    assert bound.tail.tolist() == [1, 2]


def test_a_deletion_bat_bound_by_a_running_plan_never_sees_a_later_delete():
    catalog = Catalog()
    catalog.create_table("p", {"v": np.int64})
    store = catalog.table("p")
    store.bulk_load({"v": np.arange(10)})
    store.delete([5])
    registry = default_registry()
    registry.register("test", "delete", lambda ctx, oids: ctx.catalog.table("p").delete(oids))
    builder = ProgramBuilder("demo")
    deletions = builder.call("sql", "bind_dbat", Const("sys"), Const("p"), Const(1))
    reversed_deletions = builder.call("bat", "reverse", builder.var(deletions))
    builder.effect("test", "delete", Const([2, 3]))  # a write on the owning thread, mid-plan
    rows = builder.call("sql", "bind", Const("sys"), Const("p"), Const("v"), Const(0))
    candidates = builder.call("bat", "mirror", builder.var(rows))
    builder.call(
        "algebra", "kdifference", builder.var(candidates), builder.var(reversed_deletions),
        target="live",
    )
    environment = Interpreter(registry).run(builder.build(), ExecutionContext(catalog=catalog))
    assert environment["live"].head.tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9]
    assert store.row_count == 7
    after = kdifference(environment[candidates], reverse(deletion_bat(store)))
    assert after.head.tolist() == [0, 1, 4, 6, 7, 8, 9]

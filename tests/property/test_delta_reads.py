"""Property: one oracle for every door, with and without pending writes.

Random interleavings of ``insert`` / ``delete`` / ``ColumnStore.update`` and
range selects, over a plain column and every registered adaptive strategy,
through the read doors (text ``execute``, ``execute_prepared``,
``execute_many``, ``execute_wave``) with ``read_workers`` 1 or 2.  Every
answer must be permutation-equal to a numpy mask scan of a shadow table
replayed in op order, and the adaptive structure must pass
``check_invariants()`` after every step.  Deletes deliberately repeat oids and hit rows still in the insert
delta; an oid is updated at most once (the update BAT keeps every pair it is
given, so a second update of one row is not a supported write).  Half the
tables take an insert *before* the column is made adaptive, so the adaptive
column and the insert delta both hold those rows and the union has to
deduplicate rather than concatenate.

The door-equivalence check below it drives one fixed set of ranges through
each of the five ``Database.execute*`` doors — they are adapters over one
executor, so they must agree on answers, slot order and batch counters.  The
variant-flip check follows one prepared handle through delta-free → insert →
delete → reload: which compiled variant runs is a fact of the table's deltas
at that moment, and every answer along the way matches the shadow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core.strategy import available_strategies
from repro.engine.database import Database
from repro.util.units import KB

ROWS = 400
DOMAIN = 1_000.0
SQL = "select objid, v from p where v between ? and ?"
LITERAL = "select objid, v from p where v between {low!r} and {high!r}"

op_kinds = st.sampled_from(
    ["insert", "delete", "update", "text", "prepared", "many", "wave"]
)
ops = st.lists(st.tuples(op_kinds, st.integers(0, 2**16)), min_size=6, max_size=40)
organisations = st.sampled_from([None, *available_strategies()])


class Shadow:
    """The rows as they logically stand: value and liveness per oid."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values.copy()
        self.live = np.ones(values.size, dtype=bool)
        self.updated = np.zeros(values.size, dtype=bool)

    def insert(self, values: np.ndarray) -> np.ndarray:
        oids = np.arange(self.values.size, self.values.size + values.size)
        self.values = np.concatenate((self.values, values))
        self.live = np.concatenate((self.live, np.ones(values.size, dtype=bool)))
        self.updated = np.concatenate((self.updated, np.zeros(values.size, dtype=bool)))
        return oids

    def answer(self, low: float, high: float) -> list[tuple[int, float]]:
        hits = np.flatnonzero(self.live & (self.values >= low) & (self.values <= high))
        return sorted(zip(hits.tolist(), self.values[hits].tolist()))


def _build(organisation: str | None, early_insert: bool) -> tuple[Database, Shadow]:
    values = np.random.default_rng(3).uniform(0.0, DOMAIN, ROWS)
    database = Database()
    database.create_table("p", {"objid": "int64", "v": "float64"})
    database.bulk_load("p", {"objid": np.arange(ROWS, dtype=np.int64), "v": values})
    shadow = Shadow(values)
    if early_insert:
        early = np.linspace(1.0, DOMAIN - 1.0, 7)
        database.insert("p", {"objid": shadow.insert(early), "v": early})
    if organisation is not None:
        database.enable_adaptive(
            "p", "v", strategy=organisation, model="apm", m_min=1 * KB, m_max=4 * KB, seed=1
        )
    return database, shadow


def _pairs(result) -> list[tuple[int, float]]:
    assert not isinstance(result, BaseException), result
    return sorted(zip(result.columns["objid"].tolist(), result.columns["v"].tolist()))


def _ranges(rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    lows = rng.uniform(0.0, DOMAIN * 0.9, count)
    return [(float(low), float(low + rng.uniform(0.0, DOMAIN * 0.2))) for low in lows]


def _step(database: Database, shadow: Shadow, prepared, kind: str, draw: int) -> None:
    rng = np.random.default_rng(draw)
    store = database.catalog.table("p")
    if kind == "insert":
        values = rng.uniform(0.0, DOMAIN, int(rng.integers(1, 9)))
        oids = shadow.insert(values)
        database.insert("p", {"objid": oids, "v": values})
    elif kind == "delete":
        # Any allocated oid, twice over: re-deletes and inserted rows included.
        oids = rng.integers(0, shadow.values.size, int(rng.integers(1, 7)))
        shadow.live[oids] = False
        database.delete("p", np.concatenate((oids, oids[:1])))
    elif kind == "update":
        oids = np.flatnonzero(~shadow.updated)
        oids = rng.choice(oids, size=min(oids.size, int(rng.integers(1, 5))), replace=False)
        values = rng.uniform(0.0, DOMAIN, oids.size)
        shadow.values[oids] = values
        shadow.updated[oids] = True
        store.update("v", oids, values)
    elif kind == "text":
        ((low, high),) = _ranges(rng, 1)
        result = database.execute(LITERAL.format(low=low, high=high))
        assert _pairs(result) == shadow.answer(low, high)
    elif kind == "prepared":
        ((low, high),) = _ranges(rng, 1)
        result = database.execute_prepared(prepared, (low, high))
        assert _pairs(result) == shadow.answer(low, high)
    else:
        bounds = _ranges(rng, int(rng.integers(2, 6)))
        if kind == "many":
            results = database.execute_many(
                [LITERAL.format(low=low, high=high) for low, high in bounds]
            )
        else:
            results = database.execute_wave(
                [(prepared, prepared.binding.bind(pair)) for pair in bounds]
            )
        assert len(results) == len(bounds)
        for (low, high), result in zip(bounds, results):
            assert _pairs(result) == shadow.answer(low, high)
    assert store.row_count == int(shadow.live.sum())
    assert store.has_deltas == bool(
        shadow.values.size > ROWS or not shadow.live.all() or shadow.updated.any()
    )


@seed(20260925)
@given(
    organisation=organisations,
    early_insert=st.booleans(),
    read_workers=st.sampled_from([1, 2]),
    stream=ops,
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reads_beside_writes_match_a_mask_scan(organisation, early_insert, read_workers, stream):
    database, shadow = _build(organisation, early_insert)
    database.read_workers = read_workers
    prepared = database.prepare_statement(SQL)
    adaptive = (
        database.adaptive_handle("p", "v").adaptive if organisation is not None else None
    )
    for kind, draw in stream:
        _step(database, shadow, prepared, kind, draw)
        if adaptive is not None:
            adaptive.check_invariants()
    # Whatever the stream left pending, a full scan sees exactly the live rows.
    result = database.execute_prepared(prepared, (0.0, DOMAIN))
    assert _pairs(result) == shadow.answer(0.0, DOMAIN)


# -- one door-equivalence check ------------------------------------------------------

DOORS = ("execute", "execute_prepared", "execute_prepared_many", "execute_many", "execute_wave")
RANGES = [(40.0, 90.0), (60.0, 120.0), (500.0, 510.0), (880.0, 1000.0), (0.0, 15.5)]
RAN_SINGLY = {"cold", "shape", "masked", "prepared"}  # the compiled plan ran for this member


def _through(database: Database, door: str, prepared, bounds, **options) -> list:
    """The same ranges through one door; always a list in input order."""
    texts = [LITERAL.format(low=low, high=high) for low, high in bounds]
    if door == "execute":
        return [database.execute(text) for text in texts]
    if door == "execute_prepared":
        return [database.execute_prepared(prepared, pair) for pair in bounds]
    if door == "execute_prepared_many":
        return database.execute_prepared_many(prepared, bounds)
    if door == "execute_many":
        return database.execute_many(texts)
    return database.execute_wave(
        [(prepared, prepared.binding.bind(pair)) for pair in bounds], **options
    )


@pytest.mark.parametrize("read_workers", [1, 2])
@pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "pending-deltas"])
@pytest.mark.parametrize("organisation", [None, *available_strategies()])
@pytest.mark.parametrize("door", DOORS)
def test_every_door_answers_alike(door, organisation, pending, read_workers):
    database, shadow = _build(organisation, early_insert=False)
    database.read_workers = read_workers
    adaptive = (
        database.adaptive_handle("p", "v").adaptive if organisation is not None else None
    )
    prepared = database.prepare_statement(SQL)
    if pending:
        _step(database, shadow, prepared, "insert", 11)
        _step(database, shadow, prepared, "delete", 12)

    results = _through(database, door, prepared, RANGES)

    assert [_pairs(result) for result in results] == [
        shadow.answer(low, high) for low, high in RANGES
    ]  # slot order is input order
    assert database.query_history[-len(RANGES):] == results
    if adaptive is not None:
        adaptive.check_invariants()
    # Whichever wave door delivered them, the members were bucketed alike.
    snapshot_read = read_workers > 1 and getattr(adaptive, "supports_snapshot_reads", False)
    levels = {result.cache_level for result in results}
    batch = database.cache_stats()["batch"]
    counted = (batch["waves"], batch["batched_queries"], batch["fallback_queries"])
    if door in ("execute", "execute_prepared"):
        assert counted == (0, 0, 0) and levels <= RAN_SINGLY
    elif pending:
        assert counted == (0, 0, len(RANGES)) and levels <= RAN_SINGLY
    elif snapshot_read:
        assert counted == (0, 0, 0) and levels == {"snapshot"}
    else:
        assert counted == (1, len(RANGES), 0) and levels == {"batched"}


@pytest.mark.parametrize("organisation", [None, *available_strategies()])
@pytest.mark.parametrize("door", DOORS)
def test_the_first_write_flips_the_variant_and_a_reload_flips_it_back(door, organisation):
    database, shadow = _build(organisation, early_insert=False)
    prepared = database.prepare_statement(SQL)

    def read(pending: bool) -> None:
        results = _through(database, door, prepared, RANGES)
        assert [_pairs(result) for result in results] == [
            shadow.answer(low, high) for low, high in RANGES
        ]
        ran = [r.profile.opcode_counts for r in results if r.cache_level in RAN_SINGLY]
        if pending:  # every member ran the full Figure-1 cascade on its own
            assert len(ran) == len(RANGES)
            assert all("algebra.kunion" in counts and "algebra.join" in counts for counts in ran)
        else:  # the delta-free lowering, or a batch that ran no plan at all
            assert len(ran) == (len(RANGES) if door in ("execute", "execute_prepared") else 0)
            assert all(
                "algebra.projection" in counts and "algebra.kunion" not in counts
                for counts in ran
            )

    read(pending=False)
    _step(database, shadow, prepared, "insert", 11)
    read(pending=True)
    _step(database, shadow, prepared, "delete", 12)
    read(pending=True)
    # Nothing but a reload empties the deltas again.  An adaptive column is
    # rebuilt over the new rows; the stale handle re-prepares both variants.
    values = np.random.default_rng(4).uniform(0.0, DOMAIN, ROWS)
    if organisation is not None:
        database.disable_adaptive("p", "v")
    database.bulk_load("p", {"objid": np.arange(ROWS, dtype=np.int64), "v": values})
    if organisation is not None:
        database.enable_adaptive(
            "p", "v", strategy=organisation, model="apm", m_min=1 * KB, m_max=4 * KB, seed=1
        )
        assert prepared.generation != database.plan_cache.generation
    shadow = Shadow(values)
    read(pending=False)
    if organisation is not None:
        database.adaptive_handle("p", "v").adaptive.check_invariants()


@pytest.mark.parametrize("read_workers", [1, 2])
@pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "pending-deltas"])
@pytest.mark.parametrize("organisation", [None, *available_strategies()])
def test_an_isolated_wave_keeps_a_poison_member_in_its_slot(organisation, pending, read_workers):
    database, shadow = _build(organisation, early_insert=False)
    database.read_workers = read_workers
    database.create_table("gone", {"w": "float64"})
    database.bulk_load("gone", {"w": np.arange(5.0)})
    poison = database.prepare_statement("select w from gone where w between ? and ?")
    database.drop_table("gone")  # the handle is stale and can no longer be refreshed
    prepared = database.prepare_statement(SQL)
    if pending:
        _step(database, shadow, prepared, "insert", 11)
        _step(database, shadow, prepared, "delete", 12)
    members = [(prepared, prepared.binding.bind(pair)) for pair in RANGES]
    members.insert(2, (poison, (0.0, 1.0)))

    with pytest.raises(KeyError):
        database.execute_wave(members)
    results = database.execute_wave(members, isolate=True)

    assert isinstance(results[2], KeyError)
    healthy = results[:2] + results[3:]
    assert [_pairs(result) for result in healthy] == [
        shadow.answer(low, high) for low, high in RANGES
    ]
    assert database.query_history[-len(RANGES):] == healthy
    if organisation is not None:
        database.adaptive_handle("p", "v").adaptive.check_invariants()
    # The failed whole-wave attempts ran nothing; the replay ran each member alone.
    batch = database.cache_stats()["batch"]
    assert (batch["waves"], batch["fallback_queries"]) == (0, len(RANGES))

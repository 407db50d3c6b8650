"""Property: one oracle for every door, with and without pending writes.

Random interleavings of ``insert`` / ``delete`` and range selects, over a
plain column and every registered adaptive strategy, through the read doors
(text ``execute``, ``execute_prepared``, ``execute_wave``).  Every answer
must be permutation-equal to a numpy mask scan of a shadow table replayed in
op order, and the adaptive structure must pass ``check_invariants()`` after
every step.  Deletes
deliberately repeat oids and hit rows still in the insert delta.  Half the
tables take an insert *before* the column is made adaptive, so the adaptive
column and the insert delta both hold those rows: the live-rows step scans
the delta only past the adaptive column's rows.

The door-equivalence check below it drives two fixed sets of ranges — an
ordinary spread, and the edges: bounds on stored values, a range of one
value, the empty gap between two neighbours, the whole domain and ranges
past either end of it — through each of the four ``Database.execute*``
doors, a wave of literal statements (one prepared handle per member), and
the client API's ``Cursor.executemany`` and
``PreparedStatement.executemany`` — they are adapters over one executor,
so they must agree on answers, slot order and batch counters.  The
one-lowering check follows one prepared handle through delta-free → insert →
delete → reload: every member that runs a plan runs the lowering, and every
answer along the way matches the shadow.  The clone check rebuilds a table
with pending inserts and deletes on a fresh engine.  The knob check moves
layout knobs between waves and expects the answers of a run that moves none,
and every wave door must leave an adaptive column exactly as ``select_many``
over the same ranges leaves it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import repro
from repro.cluster.replica import clone_database
from repro.core.strategy import available_strategies
from repro.engine.database import Database
from repro.tuning.knobs import knob_table
from repro.util.units import KB
from tests.conftest import literal_wave

ROWS = 400
DOMAIN = 1_000.0
SQL = "select objid, v from p where v between ? and ?"
LITERAL = "select objid, v from p where v between {low!r} and {high!r}"

op_kinds = st.sampled_from(
    ["insert", "delete", "text", "prepared", "wave"]
)
ops = st.lists(st.tuples(op_kinds, st.integers(0, 2**16)), min_size=6, max_size=40)
organisations = st.sampled_from([None, *available_strategies()])


class Shadow:
    """The rows as they logically stand: value and liveness per oid."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values.copy()
        self.live = np.ones(values.size, dtype=bool)

    def insert(self, values: np.ndarray) -> np.ndarray:
        oids = np.arange(self.values.size, self.values.size + values.size)
        self.values = np.concatenate((self.values, values))
        self.live = np.concatenate((self.live, np.ones(values.size, dtype=bool)))
        return oids

    def answer(self, low: float, high: float) -> list[tuple[int, float]]:
        hits = np.flatnonzero(self.live & (self.values >= low) & (self.values <= high))
        return sorted(zip(hits.tolist(), self.values[hits].tolist()))


def _loaded() -> np.ndarray:
    """The values every table here is bulk-loaded with."""
    return np.random.default_rng(3).uniform(0.0, DOMAIN, ROWS)


def _build(organisation: str | None, early_insert: bool) -> tuple[Database, Shadow]:
    values = _loaded()
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
        results = database.execute_wave(
            [(prepared, prepared.binding.bind(pair)) for pair in bounds]
        )
        assert len(results) == len(bounds)
        for (low, high), result in zip(bounds, results):
            assert _pairs(result) == shadow.answer(low, high)
    assert store.row_count == int(shadow.live.sum())
    assert store.has_deltas == bool(shadow.values.size > ROWS or not shadow.live.all())


@seed(20260925)
@given(
    organisation=organisations,
    early_insert=st.booleans(),
    stream=ops,
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reads_beside_writes_match_a_mask_scan(organisation, early_insert, stream):
    database, shadow = _build(organisation, early_insert)
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

DOORS = (
    "execute",
    "execute_prepared",
    "execute_prepared_many",
    "execute_wave",
    "literal_wave",
    "cursor_executemany",
    "statement_executemany",
)
RANGES = [(40.0, 90.0), (60.0, 120.0), (500.0, 510.0), (880.0, 1000.0), (0.0, 15.5)]
_SORTED = np.sort(_loaded())
EDGES = [
    (float(_SORTED[7]), float(_SORTED[7])),  # one stored value: both bounds are inclusive
    (float(_SORTED[100]), float(_SORTED[140])),  # both bounds on stored values
    # strictly between two neighbouring stored values: nothing
    (float(np.nextafter(_SORTED[200], DOMAIN)), float(np.nextafter(_SORTED[201], 0.0))),
    (-5.0, float(_SORTED[0])),  # from below the domain up to its least value
    (0.0, DOMAIN),  # everything
    (DOMAIN + 1.0, DOMAIN + 50.0),  # above the domain
]
BOUNDS = pytest.mark.parametrize("bounds", [RANGES, EDGES], ids=["spread", "edges"])
RAN_SINGLY = {"cold", "shape", "masked", "prepared"}  # the compiled plan ran for this member


def _through(database: Database, door: str, prepared, bounds, **options) -> list:
    """The same ranges through one door; always a list in input order."""
    if door == "execute":
        return [database.execute(LITERAL.format(low=low, high=high)) for low, high in bounds]
    if door == "execute_prepared":
        return [database.execute_prepared(prepared, pair) for pair in bounds]
    if door == "execute_prepared_many":
        return database.execute_prepared_many(prepared, bounds)
    if door == "literal_wave":
        return literal_wave(database, [LITERAL.format(low=low, high=high) for low, high in bounds])
    if door == "cursor_executemany":
        return repro.connect(database).cursor().executemany(SQL, bounds).results
    if door == "statement_executemany":
        return repro.connect(database).prepare(SQL).executemany(bounds)
    return database.execute_wave(
        [(prepared, prepared.binding.bind(pair)) for pair in bounds], **options
    )


@BOUNDS
@pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "pending-deltas"])
@pytest.mark.parametrize("organisation", [None, *available_strategies()])
@pytest.mark.parametrize("door", DOORS)
def test_every_door_answers_alike(door, organisation, pending, bounds):
    database, shadow = _build(organisation, early_insert=False)
    adaptive = (
        database.adaptive_handle("p", "v").adaptive if organisation is not None else None
    )
    prepared = database.prepare_statement(SQL)
    if pending:
        _step(database, shadow, prepared, "insert", 11)
        _step(database, shadow, prepared, "delete", 12)

    results = _through(database, door, prepared, bounds)

    assert [_pairs(result) for result in results] == [
        shadow.answer(low, high) for low, high in bounds
    ]  # slot order is input order
    assert database.query_history[-len(bounds):] == [result.record() for result in results]
    if adaptive is not None:
        adaptive.check_invariants()
    # Whichever wave door delivered them, the members were bucketed alike.
    levels = {result.cache_level for result in results}
    batch = database.cache_stats()["batch"]
    counted = (batch["waves"], batch["batched_queries"], batch["fallback_queries"])
    if door in ("execute", "execute_prepared"):
        assert counted == (0, 0, 0) and levels <= RAN_SINGLY
    elif pending or adaptive is None:  # pending deltas or a plain column: no batch pass
        assert counted == (0, 0, len(bounds)) and levels <= RAN_SINGLY
    else:
        assert counted == (1, len(bounds), 0) and levels == {"batched"}


@BOUNDS
@pytest.mark.parametrize("organisation", [None, *available_strategies()])
@pytest.mark.parametrize("door", DOORS)
def test_one_lowering_runs_beside_inserts_deletes_and_after_a_reload(door, organisation, bounds):
    database, shadow = _build(organisation, early_insert=False)
    prepared = database.prepare_statement(SQL)

    def read(pending: bool) -> None:
        results = _through(database, door, prepared, bounds)
        assert [_pairs(result) for result in results] == [
            shadow.answer(low, high) for low, high in bounds
        ]
        ran = [r.profile.opcode_counts for r in results if r.cache_level in RAN_SINGLY]
        if pending or organisation is None:  # every member ran a plan on its own
            assert len(ran) == len(bounds)
        else:  # the lowering, or a wave that ran no plan at all
            assert len(ran) == (len(bounds) if door in ("execute", "execute_prepared") else 0)
        assert all(counts["sql.live"] == 1 and "algebra.kunion" not in counts for counts in ran)

    read(pending=False)
    _step(database, shadow, prepared, "insert", 11)
    read(pending=True)
    _step(database, shadow, prepared, "delete", 12)
    read(pending=True)
    # Nothing but a reload empties the deltas again.  An adaptive column is
    # rebuilt over the new rows; the stale handle re-prepares its lowering.
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


@pytest.mark.parametrize("early_insert", [False, True], ids=["late", "early-insert"])
@pytest.mark.parametrize("organisation", [None, *available_strategies()])
def test_a_clone_of_a_table_with_pending_writes_answers_like_its_source(
    organisation, early_insert
):
    source, shadow = _build(organisation, early_insert)
    prepared = source.prepare_statement(SQL)
    for draw, kind in enumerate(["insert", "delete", "insert", "delete"], start=20):
        _step(source, shadow, prepared, kind, draw)
    clone = clone_database(source)
    for database in (source, clone):
        assert database.catalog.table("p").row_count == int(shadow.live.sum())
        results = [database.execute_prepared(database.prepare_statement(SQL), pair)
                   for pair in [*RANGES, (0.0, DOMAIN)]]
        assert [_pairs(result) for result in results] == [
            shadow.answer(low, high) for low, high in [*RANGES, (0.0, DOMAIN)]
        ]
        assert all(r.profile.opcode_counts["sql.live"] == 1 for r in results)
    # The source's deletion BAT was read to build the clone; later deletes
    # on the source must not reach into the clone, nor back.
    source.delete("p", np.arange(ROWS))
    assert clone.catalog.table("p").row_count == int(shadow.live.sum())


# -- layout knobs moved between waves ------------------------------------------------

KNOB_ROWS = 20_000


def _knob_build(organisation: str) -> Database:
    values = np.random.default_rng(17).uniform(0.0, DOMAIN, KNOB_ROWS)
    database = Database()
    database.create_table("p", {"objid": "int64", "v": "float64"})
    database.bulk_load("p", {"objid": np.arange(KNOB_ROWS, dtype=np.int64), "v": values})
    budget = {"storage_budget": 1.5 * values.nbytes} if organisation == "replication" else {}
    database.enable_adaptive(
        "p", "v", strategy=organisation, model="apm", m_min=2 * KB, m_max=8 * KB, seed=5,
        **budget,
    )
    return database


@pytest.mark.parametrize("organisation", ["segmentation", "replication"])
def test_waves_answer_alike_when_layout_knobs_move_between_them(organisation):
    """Splits, replicas and budget moves between waves change the layout, never an answer."""
    bounds = _ranges(np.random.default_rng(23), 192)

    def waves(database: Database, move=None) -> list:
        prepared = database.prepare_statement(SQL)
        answers = []
        for index, start in enumerate(range(0, len(bounds), 16)):
            members = [
                (prepared, prepared.binding.bind(pair)) for pair in bounds[start:start + 16]
            ]
            answers.extend(_pairs(result) for result in database.execute_wave(members))
            if move is not None:
                move(database, index)
        return answers

    def move(database: Database, index: int) -> None:
        if organisation == "segmentation":
            database.set_knobs({"apm_m_max": (8 if index % 2 else 6) * KB})
        else:
            name = "replication_storage_budget"
            row = next(row for row in knob_table(database) if row["name"] == name)
            database.set_knobs({name: row["low"] if index % 2 else row["high"]})

    moved = _knob_build(organisation)
    assert waves(moved, move) == waves(_knob_build(organisation))
    moved.adaptive_handle("p", "v").adaptive.check_invariants()


WAVE_DOORS = [door for door in DOORS if door not in ("execute", "execute_prepared")]


@pytest.mark.parametrize("door", WAVE_DOORS)
@pytest.mark.parametrize("organisation", available_strategies())
def test_every_wave_door_adapts_the_column_like_select_many(organisation, door):
    """A wave reads through the column, so it adapts it: the layout, history and
    charged bytes are those of ``select_many`` over the same ranges."""
    bounds = _ranges(np.random.default_rng(29), 16)

    def state(database: Database) -> tuple:
        column = database.adaptive_handle("p", "v").adaptive
        column.check_invariants()
        accountant = column.accountant
        return (
            column.segment_count,
            len(column.history),
            column._queries_executed,
            accountant.total_reads_bytes,
            accountant.total_writes_bytes,
        )

    waved = _knob_build(organisation)
    results = _through(waved, door, waved.prepare_statement(SQL), bounds)
    assert {result.cache_level for result in results} == {"batched"}
    reference = _knob_build(organisation)
    reference.adaptive_handle("p", "v").adaptive.select_many(bounds)
    assert state(waved) == state(reference)
    _, _, executed, reads, _ = state(waved)
    assert executed == len(bounds) and reads > 0


@pytest.mark.parametrize("organisation", [None, *available_strategies()])
@pytest.mark.parametrize("door", DOORS)
def test_an_update_as_delete_then_insert_answers_with_the_latest_value(door, organisation):
    """Objid 3 is rewritten twice through the write doors; only its last value answers."""
    database, _ = _build(organisation, early_insert=False)
    prepared = database.prepare_statement(SQL)
    # The loaded row, then its first replacement, which took the next free oid.
    for oid, value in ((3, 500.0), (ROWS, 700.0)):
        database.delete("p", np.array([oid]))
        database.insert("p", {"objid": np.array([3]), "v": np.array([value])})
    stale, fresh, everything = _through(
        database, door, prepared, [(499.0, 501.0), (699.0, 701.0), (0.0, DOMAIN)]
    )
    assert (3, 500.0) not in _pairs(stale)
    assert (3, 700.0) in _pairs(fresh)
    assert everything.columns["objid"].tolist().count(3) == 1
    assert len(everything.columns["objid"]) == ROWS
    for result in (stale, fresh, everything):
        counts = result.profile.opcode_counts
        assert counts["sql.live"] == 1 and "algebra.kunion" not in counts
    if organisation is not None:
        database.adaptive_handle("p", "v").adaptive.check_invariants()


@BOUNDS
@pytest.mark.parametrize("pending", [False, True], ids=["delta-free", "pending-deltas"])
@pytest.mark.parametrize("organisation", [None, *available_strategies()])
def test_an_isolated_wave_keeps_a_poison_member_in_its_slot(organisation, pending, bounds):
    database, shadow = _build(organisation, early_insert=False)
    database.create_table("gone", {"w": "float64"})
    database.bulk_load("gone", {"w": np.arange(5.0)})
    poison = database.prepare_statement("select w from gone where w between ? and ?")
    database.drop_table("gone")  # the handle is stale and can no longer be refreshed
    prepared = database.prepare_statement(SQL)
    if pending:
        _step(database, shadow, prepared, "insert", 11)
        _step(database, shadow, prepared, "delete", 12)
    members = [(prepared, prepared.binding.bind(pair)) for pair in bounds]
    members.insert(2, (poison, (0.0, 1.0)))

    with pytest.raises(KeyError):
        database.execute_wave(members)
    results = database.execute_wave(members, isolate=True)

    assert isinstance(results[2], KeyError)
    healthy = results[:2] + results[3:]
    assert [_pairs(result) for result in healthy] == [
        shadow.answer(low, high) for low, high in bounds
    ]
    assert database.query_history[-len(bounds):] == [result.record() for result in healthy]
    if organisation is not None:
        database.adaptive_handle("p", "v").adaptive.check_invariants()
    # The failed whole-wave attempts ran nothing; the replay ran each member alone.
    batch = database.cache_stats()["batch"]
    assert (batch["waves"], batch["fallback_queries"]) == (0, len(bounds))

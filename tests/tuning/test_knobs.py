"""The knob table: rows, validation, all-or-nothing application.

Knobs steer *where* the adaptive layer splits and materializes, never *what*
a range query returns: a stream of ``set_knobs`` calls landing mid-stream
leaves every answer permutation-equal to a serial run under fixed default
knobs.  The default-knob pins tie the table's defaults to the Figure 5–7
accounting fixture: the pinned SHA-256 series *is* the default-knob
accounting, and a no-op ``set_knobs`` reproduces it bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine.database import Database
from repro.tuning.knobs import knob_table, set_knobs
from repro.util.units import KB


def _rows(fleet, **kwargs) -> dict[str, dict]:
    return {row["name"]: row for row in knob_table(fleet, **kwargs)}


@pytest.fixture
def adaptive_database() -> Database:
    database = Database()
    database.create_table("t", {"v": "float64"})
    rng = np.random.default_rng(11)
    database.bulk_load("t", {"v": rng.uniform(0.0, 1000.0, 4000)})
    database.enable_adaptive("t", "v", model="apm", m_min=1 * KB, m_max=4 * KB)
    return database


def _replication_database(budget_of) -> tuple[Database, object]:
    """A 4 000-row replication column whose budget is ``budget_of(column bytes)``."""
    database = Database()
    database.create_table("t", {"v": "float64"})
    values = np.random.default_rng(3).uniform(0.0, 1000.0, 4000)
    database.bulk_load("t", {"v": values})
    database.enable_adaptive(
        "t", "v", strategy="replication", storage_budget=budget_of(values.nbytes),
    )
    return database, database.adaptive_handle("t", "v").adaptive


class TestValidation:
    def test_bounds(self, adaptive_database):
        assert adaptive_database.set_knobs({"read_workers": 3})["read_workers"] == 3.0
        with pytest.raises(ValueError, match="outside"):
            adaptive_database.set_knobs({"read_workers": 11.0})
        with pytest.raises(ValueError, match="not a number"):
            adaptive_database.set_knobs({"read_workers": "nope"})

    def test_integer_rounds(self, adaptive_database):
        assert adaptive_database.set_knobs({"read_workers": 3.4})["read_workers"] == 3.0

    def test_table_reads_live_value(self, adaptive_database):
        adaptive_database.read_workers = 7
        row = _rows(adaptive_database)["read_workers"]
        assert row["value"] == 7.0
        assert {"name", "layer", "default", "low", "high"} <= set(row)


class TestSetKnobs:
    def test_set_knobs_is_all_or_nothing(self, adaptive_database):
        model = adaptive_database.bpm.handles()[0].adaptive.model
        # Valid batch applies both.
        adaptive_database.set_knobs({"apm_m_min": 2 * KB, "apm_m_max": 9 * KB})
        assert (model.m_min, model.m_max) == (2 * KB, 9 * KB)
        # A constraint-violating batch applies *neither* knob, even though
        # each value alone is in bounds.
        with pytest.raises(ValueError, match="below apm_m_max"):
            adaptive_database.set_knobs({"apm_m_min": 7.5 * KB, "apm_m_max": 7 * KB})
        assert (model.m_min, model.m_max) == (2 * KB, 9 * KB)

    def test_unknown_knob(self):
        with pytest.raises(KeyError, match="unknown knob"):
            Database().set_knobs({"ghost": 1.0})


class TestDatabaseKnobs:
    def test_a_plain_engine_carries_only_read_workers(self):
        assert Database().knobs() == {"read_workers": 1.0}

    def test_apm_knobs_read_and_apply(self, adaptive_database):
        knobs = adaptive_database.knobs()
        assert knobs["apm_m_min"] == 1 * KB
        assert knobs["apm_m_max"] == 4 * KB
        adaptive_database.set_knobs({"apm_m_min": 2 * KB, "apm_m_max": 8 * KB})
        model = adaptive_database.bpm.handles()[0].adaptive.model
        assert (model.m_min, model.m_max) == (2 * KB, 8 * KB)

    def test_apm_order_constraint(self, adaptive_database):
        with pytest.raises(ValueError, match="below apm_m_max"):
            adaptive_database.set_knobs({"apm_m_min": 8 * KB})  # >= current m_max
        model = adaptive_database.bpm.handles()[0].adaptive.model
        assert (model.m_min, model.m_max) == (1 * KB, 4 * KB)  # untouched

    def test_database_facade(self, adaptive_database):
        assert adaptive_database.knobs()["apm_m_min"] == 1 * KB
        adaptive_database.set_knobs({"apm_m_min": 512.0})
        assert adaptive_database.knobs()["apm_m_min"] == 512.0

    def test_replication_budget_knob(self):
        database = Database()
        database.create_table("t", {"v": "float64"})
        rng = np.random.default_rng(3)
        database.bulk_load("t", {"v": rng.uniform(0.0, 1000.0, 2000)})
        database.enable_adaptive(
            "t", "v", strategy="replication", storage_budget=2000 * 8 + 64 * KB,
        )
        row = _rows(database)["replication_storage_budget"]
        column = database.bpm.handles()[0].adaptive
        assert row["low"] == column.total_bytes  # the floor is the column itself
        database.set_knobs({"replication_storage_budget": row["high"]})
        assert column.storage_budget == row["high"]

    def test_the_budget_default_is_the_enabled_budget(self):
        database, column = _replication_database(lambda nbytes: 2 * nbytes)
        database.set_knobs({"replication_storage_budget": 3 * column.total_bytes})
        row = _rows(database)["replication_storage_budget"]
        assert row["default"] == 2 * column.total_bytes
        assert row["value"] == column.storage_budget == 3 * column.total_bytes

    def test_a_budget_above_four_columns_stays_in_bounds(self):
        database, column = _replication_database(lambda nbytes: 10 * nbytes)
        row = _rows(database)["replication_storage_budget"]
        assert (row["low"], row["high"]) == (column.total_bytes, 10 * column.total_bytes)
        assert row["default"] == row["value"] == 10 * column.total_bytes
        before = database.knobs()
        assert database.set_knobs(before) == before  # a no-op, not "outside"
        assert database.knobs() == before
        assert column.storage_budget == 10 * column.total_bytes

    def test_read_workers_knob_is_the_engine_attribute(self, adaptive_database):
        row = _rows(adaptive_database)["read_workers"]
        assert row["layer"] == "engine"
        assert (row["low"], row["high"]) == (1, 8)
        assert adaptive_database.read_workers == 1
        adaptive_database.set_knobs({"read_workers": 4.6})
        assert adaptive_database.read_workers == 5  # integer knob rounds
        assert adaptive_database.knobs()["read_workers"] == 5.0


class TestServerSurface:
    def test_admission_knobs_mutate_live(self):
        class FakeAdmission:
            batch_window_us = 250.0
            max_inflight = 1024
            max_wave = 256

        admission = FakeAdmission()
        set_knobs(Database(), {"batch_window_us": 0.0, "max_wave": 31.7}, admission=admission)
        assert admission.batch_window_us == 0.0
        assert admission.max_wave == 32  # integer knob rounds

    def test_fleet_fan_out(self, adaptive_database):
        from repro.cluster.router import Router

        with Router(adaptive_database, n_replicas=2, seed=1) as router:
            assert "hot_query_threshold" in _rows(router)
            set_knobs(router, {"apm_m_min": 2 * KB})
            for replica in router.replicas:
                model = replica.database.bpm.handles()[0].adaptive.model
                assert model.m_min == 2 * KB
            # The fleet constraint still holds across replicas.
            with pytest.raises(ValueError, match="below apm_m_max"):
                set_knobs(router, {"apm_m_min": 4 * KB})
            # The router's own knobs ride in the same table.
            set_knobs(router, {"hot_query_threshold": 0.75})
            assert router.hot_query_threshold == 0.75
            assert _rows(router)["hot_query_threshold"]["value"] == 0.75


#: The knob surface of a routed server with an APM column: layer, default,
#: low, high and integrality of every knob whose bounds are constants.
#: Operators and the README table depend on these; a change here is a
#: change of the public configuration surface.
SURFACE = {
    "apm_m_min": ("storage-model", 3 * KB, 0.25 * KB, 64 * KB, False),
    "apm_m_max": ("storage-model", 12 * KB, 1 * KB, 256 * KB, False),
    "read_workers": ("engine", 1.0, 1.0, 8.0, True),
    "hot_query_threshold": ("cluster", 0.5, 0.05, 1.0, False),
    "batch_window_us": ("server", 250.0, 0.0, 10_000.0, False),
    "max_inflight": ("server", 1024.0, 1.0, 65_536.0, True),
    "max_wave": ("server", 256.0, 1.0, 4_096.0, True),
}
#: What a batch must also carry so that ``name`` at a bound keeps
#: ``apm_m_min < apm_m_max``.
PARTNER_AT = {
    ("apm_m_min", "high"): {"apm_m_max": 256 * KB},
    ("apm_m_max", "low"): {"apm_m_min": 0.25 * KB},
}


class _Surface:
    """A server's knob surface: its router and admission, through the one path."""

    def __init__(self, router, admission) -> None:
        self._router, self._admission = router, admission

    def table(self) -> list[dict]:
        return knob_table(self._router, admission=self._admission)

    def row(self, name: str) -> dict:
        return next(row for row in self.table() if row["name"] == name)

    def knobs(self) -> dict[str, float]:
        return {row["name"]: row["value"] for row in self.table()}

    def set_knobs(self, values) -> dict[str, float]:
        return set_knobs(self._router, values, admission=self._admission)


@pytest.fixture
def server_surface():
    """A full server surface (router + admission) over a default-knob APM column."""
    from repro.cluster.router import Router
    from repro.server.admission import AdmissionController

    database = Database()
    database.create_table("t", {"v": "float64"})
    database.bulk_load("t", {"v": np.random.default_rng(11).uniform(0.0, 1000.0, 2000)})
    database.enable_adaptive("t", "v", model="apm")
    with Router(database, n_replicas=2, seed=1) as router:
        admission = AdmissionController(router)
        yield _Surface(router, admission)


class TestPinnedSurface:
    def test_names_are_pinned(self, server_surface):
        assert sorted(server_surface.knobs()) == sorted(SURFACE)

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_spec_is_pinned(self, server_surface, name):
        spec = server_surface.row(name)
        assert (
            spec["layer"], spec["default"], spec["low"], spec["high"], spec["integer"]
        ) == SURFACE[name]
        assert server_surface.knobs()[name] == spec["default"]  # nothing moved it
        row = next(row for row in server_surface.table() if row["name"] == name)
        assert set(row) == {
            "name", "layer", "default", "low", "high", "integer", "value", "description",
        }

    @pytest.mark.parametrize("side", ["low", "high"])
    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_each_bound_is_accepted(self, server_surface, name, side):
        bound = server_surface.row(name)[side]
        batch = {name: bound, **PARTNER_AT.get((name, side), {})}
        assert server_surface.set_knobs(batch)[name] == bound

    @pytest.mark.parametrize("side", ["low", "high"])
    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_past_a_bound_rejects_the_whole_batch(self, server_surface, name, side):
        spec = server_surface.row(name)
        outside = spec["low"] - 1.0 if side == "low" else spec["high"] + 1.0
        # A valid change to another knob rides in the same batch.
        other = "max_wave" if name != "max_wave" else "max_inflight"
        before = server_surface.knobs()
        with pytest.raises(ValueError, match=f"knob {name}: .* outside"):
            server_surface.set_knobs({other: 2.0, name: outside})
        assert server_surface.knobs() == before

    def test_setting_the_live_vector_is_a_no_op(self, server_surface):
        before = server_surface.table()
        assert server_surface.set_knobs(server_surface.knobs()) == server_surface.knobs()
        assert server_surface.table() == before


DOMAIN = (0.0, 1000.0)
FIXTURE_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "fig5_7_accounting_fixture.json"
)


def _make_database() -> Database:
    database = Database()
    database.create_table("t", {"v": "float64"})
    rng = np.random.default_rng(42)
    database.bulk_load("t", {"v": rng.uniform(*DOMAIN, 6000)})
    database.enable_adaptive("t", "v", model="apm", m_min=1 * KB, m_max=4 * KB)
    return database


def _drifting_queries(n: int = 120) -> list[tuple[float, float]]:
    """A stream whose point of access jumps mid-way (forces drift)."""
    rng = np.random.default_rng(9)
    queries = []
    for index in range(n):
        base = 80.0 if index < n // 2 else 820.0
        low = base + float(rng.uniform(0.0, 60.0))
        queries.append((low, low + 25.0))
    return queries


def _answers(database: Database, queries, after_each=None) -> list[list[float]]:
    out = []
    for index, (low, high) in enumerate(queries):
        result = database.execute(
            f"SELECT v FROM t WHERE v BETWEEN {low!r} AND {high!r}"
        )
        out.append(sorted(result.columns["v"].tolist()))
        if after_each is not None:
            after_each(index, database, result)
    return out


class TestAnswerPreservation:
    @pytest.fixture(scope="class")
    def serial_answers(self):
        return _answers(_make_database(), _drifting_queries())

    def test_explicit_set_knobs_mid_stream(self, serial_answers):
        database = _make_database()
        queries = _drifting_queries()
        moves = {
            30: {"apm_m_min": 0.5 * KB},
            60: {"apm_m_min": 2 * KB, "apm_m_max": 16 * KB},
            90: {"apm_m_min": 1 * KB, "apm_m_max": 4 * KB},  # rollback shape
        }

        def apply_moves(index, database_, result):
            if index in moves:
                database_.set_knobs(moves[index])

        assert _answers(database, queries, after_each=apply_moves) == serial_answers


class TestDefaultKnobPins:
    def test_registry_defaults_match_fig5_7_fixture(self):
        """The pinned accounting fixture *is* the default-knob accounting."""
        fixture = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        rows = _rows(_make_database())
        assert rows["apm_m_min"]["default"] == fixture["m_min"] == 3 * KB
        assert rows["apm_m_max"]["default"] == fixture["m_max"] == 12 * KB

    def test_noop_set_knobs_keeps_accounting_bit_identical(self):
        def digest(database: Database, touch) -> str:
            handle = database.bpm.handles()[0]
            rng = np.random.default_rng(5)
            for index in range(60):
                low = float(rng.uniform(0.0, 950.0))
                database.execute(f"SELECT v FROM t WHERE v BETWEEN {low!r} AND {low + 30.0!r}")
                if touch and index % 10 == 0:
                    database.set_knobs(database.knobs())  # explicit no-op
            log = handle.adaptive.history
            hasher = hashlib.sha256()
            hasher.update(np.asarray(log.series("reads_bytes")).tobytes())
            hasher.update(np.asarray(log.series("writes_bytes")).tobytes())
            hasher.update(np.asarray(log.series("result_count")).tobytes())
            return hasher.hexdigest()

        assert digest(_make_database(), touch=False) == digest(
            _make_database(), touch=True
        )

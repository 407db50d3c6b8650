"""The typed knob registry: specs, validation, all-or-nothing application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.database import Database
from repro.tuning.knobs import (
    KnobRegistry,
    KnobSpec,
    admission_knobs,
    database_knobs,
    server_knob_registry,
)
from repro.util.units import KB


def _spec(name="k", low=0.0, high=10.0, step=1.0, integer=False, store=None):
    store = store if store is not None else {"value": 5.0}

    def _apply(value: float) -> None:
        store["value"] = value

    return KnobSpec(
        name=name, layer="server", default=5.0, low=low, high=high, step=step,
        read=lambda: store["value"], apply=_apply, integer=integer,
    )


class TestKnobSpec:
    def test_coerce_bounds(self):
        spec = _spec()
        assert spec.coerce(3) == 3.0
        with pytest.raises(ValueError, match="outside"):
            spec.coerce(11.0)
        with pytest.raises(ValueError, match="not a number"):
            spec.coerce("nope")

    def test_coerce_integer_rounds(self):
        spec = _spec(integer=True)
        assert spec.coerce(3.4) == 3.0

    def test_clamp(self):
        spec = _spec()
        assert spec.clamp(-5.0) == 0.0
        assert spec.clamp(99.0) == 10.0

    def test_describe_reads_live_value(self):
        store = {"value": 7.0}
        row = _spec(store=store).describe()
        assert row["value"] == 7.0
        assert {"name", "layer", "default", "low", "high", "step"} <= set(row)


class TestKnobRegistry:
    def test_duplicate_registration_rejected(self):
        registry = KnobRegistry()
        registry.register(_spec())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_spec())

    def test_set_knobs_is_all_or_nothing(self):
        a_store, b_store = {"value": 2.0}, {"value": 8.0}
        registry = KnobRegistry()
        registry.register(_spec(name="a", store=a_store))
        registry.register(_spec(name="b", store=b_store))

        def _ordered(values):
            if values["a"] >= values["b"]:
                raise ValueError("a must stay below b")

        registry.register_constraint(_ordered)
        # Valid batch applies both.
        registry.set_knobs({"a": 1.0, "b": 9.0})
        assert (a_store["value"], b_store["value"]) == (1.0, 9.0)
        # A constraint-violating batch applies *neither* knob, even though
        # each value alone is in bounds.
        with pytest.raises(ValueError, match="below b"):
            registry.set_knobs({"a": 7.5, "b": 7.0})
        assert (a_store["value"], b_store["value"]) == (1.0, 9.0)
        assert registry.validate({"a": 7.5, "b": 7.0}) is False
        assert registry.validate({"a": 0.5}) is True

    def test_unknown_knob(self):
        registry = KnobRegistry()
        with pytest.raises(KeyError, match="unknown knob"):
            registry.set_knobs({"ghost": 1.0})

    def test_snapshot_round_trips(self):
        store = {"value": 5.0}
        registry = KnobRegistry()
        registry.register(_spec(store=store))
        before = registry.snapshot()
        registry.set_knobs({"k": 9.0})
        registry.set_knobs(before)
        assert store["value"] == 5.0


@pytest.fixture
def adaptive_database() -> Database:
    database = Database()
    database.create_table("t", {"v": "float64"})
    rng = np.random.default_rng(11)
    database.bulk_load("t", {"v": rng.uniform(0.0, 1000.0, 4000)})
    database.enable_adaptive("t", "v", model="apm", m_min=1 * KB, m_max=4 * KB)
    return database


class TestDatabaseKnobs:
    def test_empty_without_adaptive_columns(self):
        assert len(database_knobs(Database())) == 0

    def test_apm_knobs_read_and_apply(self, adaptive_database):
        registry = database_knobs(adaptive_database)
        knobs = registry.knobs()
        assert knobs["apm_m_min"] == 1 * KB
        assert knobs["apm_m_max"] == 4 * KB
        registry.set_knobs({"apm_m_min": 2 * KB, "apm_m_max": 8 * KB})
        model = adaptive_database.bpm.handles()[0].adaptive.model
        assert (model.m_min, model.m_max) == (2 * KB, 8 * KB)

    def test_apm_order_constraint(self, adaptive_database):
        registry = database_knobs(adaptive_database)
        with pytest.raises(ValueError, match="below apm_m_max"):
            registry.set_knobs({"apm_m_min": 8 * KB})  # >= current m_max
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
        registry = database_knobs(database)
        assert "replication_storage_budget" in registry
        spec = registry.spec("replication_storage_budget")
        column = database.bpm.handles()[0].adaptive
        assert spec.low == column.total_bytes  # the floor is the column itself
        registry.set_knobs({"replication_storage_budget": spec.high})
        assert column.storage_budget == spec.high

    def test_read_workers_knob_appears_with_snapshot_capable_column(
        self, adaptive_database
    ):
        registry = database_knobs(adaptive_database)
        assert "read_workers" in registry
        spec = registry.spec("read_workers")
        assert spec.layer == "engine"
        assert (spec.low, spec.high) == (1, 8)
        assert adaptive_database.read_workers == 1
        registry.set_knobs({"read_workers": 4.6})
        assert adaptive_database.read_workers == 5  # integer knob rounds
        assert registry.knobs()["read_workers"] == 5.0


class TestServerRegistry:
    def test_admission_knobs_mutate_live(self):
        class FakeAdmission:
            batch_window_us = 250.0
            max_inflight = 1024
            max_wave = 256

        admission = FakeAdmission()
        registry = admission_knobs(admission)
        registry.set_knobs({"batch_window_us": 0.0, "max_wave": 31.7})
        assert admission.batch_window_us == 0.0
        assert admission.max_wave == 32  # integer knob rounds

    def test_fleet_fan_out(self, adaptive_database):
        from repro.cluster.router import Router

        with Router(adaptive_database, n_replicas=2, seed=1) as router:
            registry = server_knob_registry(router)
            assert "hot_query_threshold" in registry
            registry.set_knobs({"apm_m_min": 2 * KB})
            for replica in router.replicas:
                model = replica.database.bpm.handles()[0].adaptive.model
                assert model.m_min == 2 * KB
            # The fleet constraint still holds across replicas.
            with pytest.raises(ValueError, match="below apm_m_max"):
                registry.set_knobs({"apm_m_min": 4 * KB})
            # The router's own knobs ride in the same registry.
            registry.set_knobs({"router_ewma_alpha": 0.5})
            assert router.ewma_alpha == 0.5
            assert server_knob_registry(router).knobs()["router_ewma_alpha"] == 0.5

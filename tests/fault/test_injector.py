"""The deterministic fault injector: counting, matching, actions, seeding."""

from __future__ import annotations

import time

import pytest

from repro.api.exceptions import OperationalError, TransientError
from repro.fault import (
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    specs_from_json,
)


class TestFaultSpec:
    def test_validates_fields(self):
        with pytest.raises(ValueError, match="action"):
            FaultSpec(site="s", action="explode")
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="s", at=0)
        with pytest.raises(ValueError, match="count"):
            FaultSpec(site="s", count=0)
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(site="s", delay_s=-1.0)


class TestFiring:
    def test_fires_exactly_at_the_scheduled_ordinal(self):
        injector = FaultInjector()
        injector.schedule("site", at=3, action="error")
        injector.fire("site")
        injector.fire("site")
        with pytest.raises(InjectedFault):
            injector.fire("site")
        assert injector.fire("site") is None  # the window has passed
        assert injector.fired("site") == 1
        assert injector.operations("site") == 4

    def test_count_fires_consecutive_operations(self):
        injector = FaultInjector()
        injector.schedule("site", at=2, action="crash", count=2)
        injector.fire("site")
        for _ in range(2):
            with pytest.raises(InjectedCrash):
                injector.fire("site")
        assert injector.fire("site") is None

    def test_match_narrows_to_context(self):
        injector = FaultInjector()
        injector.schedule("wave.execute", at=1, action="error", replica=1)
        assert injector.fire("wave.execute", replica=0) is None
        assert injector.fire("wave.execute", replica=2) is None
        with pytest.raises(InjectedFault):
            injector.fire("wave.execute", replica=1)
        # The spec's ordinal clock counts *matching* operations only.
        assert injector.specs[0].seen == 1

    def test_injected_faults_are_transient_operational_errors(self):
        # The whole point: injected failures traverse the production
        # retry/failover paths, which key on the TransientError taxonomy.
        assert issubclass(InjectedFault, TransientError)
        assert issubclass(InjectedCrash, InjectedFault)
        assert issubclass(TransientError, OperationalError)

    def test_hang_sleeps_then_reports(self):
        injector = FaultInjector()
        injector.schedule("site", at=1, action="hang", delay_s=0.05)
        started = time.perf_counter()
        assert injector.fire("site") == "hang"
        assert time.perf_counter() - started >= 0.05

    def test_drop_is_returned_to_the_caller(self):
        injector = FaultInjector()
        injector.schedule("client.send", at=1, action="drop")
        assert injector.fire("client.send") == "drop"

    def test_unarmed_sites_cost_nothing_but_a_counter(self):
        injector = FaultInjector()
        for _ in range(10):
            assert injector.fire("quiet") is None
        assert injector.operations("quiet") == 10
        assert injector.fired() == 0

    def test_log_records_firing_order_and_context(self):
        injector = FaultInjector()
        injector.schedule("a", at=1, action="drop")
        injector.schedule("b", at=1, action="drop")
        injector.fire("b", op="execute")
        injector.fire("a")
        assert [entry["site"] for entry in injector.log] == ["b", "a"]
        assert injector.log[0]["context"] == {"op": "execute"}


class TestDeterminism:
    def test_from_spec_window_draws_the_ordinal_from_the_seed(self):
        spec = {
            "seed": 7,
            "faults": [{"site": "wave.execute", "window": 100, "action": "crash"}],
        }
        first = FaultInjector.from_spec(spec)
        second = FaultInjector.from_spec(spec)
        assert first.specs[0].at == second.specs[0].at
        assert 1 <= first.specs[0].at <= 100

    def test_specs_from_json_builds_the_armed_injector(self):
        injector = specs_from_json(
            '{"seed": 3, "faults": [{"site": "wave.execute", "at": 2, '
            '"action": "crash", "match": {"replica": 1}}]}'
        )
        assert injector.seed == 3
        spec = injector.specs[0]
        assert (spec.site, spec.at, spec.action) == ("wave.execute", 2, "crash")
        assert spec.match == {"replica": 1}
        assert injector.fired() == 0

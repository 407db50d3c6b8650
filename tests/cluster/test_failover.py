"""Fault-tolerant scale-out: health state machine, failover, rebuild.

The tentpole correctness gate lives here: under deterministically injected
crashes of up to N−1 replicas mid-stream, every client receives either a
correct answer or a clean ``TransientError``/``OperationalError``, the
completed answers are permutation-equal to a serial single-engine run, and
the fleet converges back to full health via background rebuilds.  Alongside
it: unit coverage for the :class:`ReplicaWorker` hard-timeout close (a
wedged replica must never hang shutdown) and the router's failure-detector
transitions.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.aio
from repro.api.exceptions import OperationalError, TransientError
from repro.cluster import EngineReplica, ReplicaHealth, ReplicaWorker, Router, clone_database
from repro.engine.database import Database
from repro.fault import FaultInjector
from repro.server import ReproServer
from repro.util.units import KB

SQL = "SELECT v FROM t WHERE v BETWEEN ? AND ?"
N_ROWS = 2_000


def build_database(n_rows: int = N_ROWS, seed: int = 11) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table("t", {"v": "float64"})
    database.bulk_load("t", {"v": rng.uniform(0.0, 1000.0, size=n_rows)})
    database.enable_adaptive("t", "v", strategy="segmentation")
    return database


def wave_of(router: Router, prepared, bounds) -> list:
    """Run one wave synchronously on its replica's worker."""
    index = router.route(prepared, bounds)
    return router.replicas[index].run(
        router.execute_wave_on, index, [(prepared, bounds)]
    )


class TestReplicaWorker:
    def test_submit_returns_a_future_with_the_result(self):
        worker = ReplicaWorker(0)
        assert worker.submit(lambda a, b: a + b, 2, 3).result(timeout=2) == 5
        assert worker.close()

    def test_exceptions_travel_through_the_future(self):
        worker = ReplicaWorker(0)
        future = worker.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result(timeout=2)
        assert worker.close()

    def test_close_is_idempotent_and_rejects_new_work(self):
        worker = ReplicaWorker(0)
        assert worker.close() and worker.close()
        with pytest.raises(RuntimeError, match="closed"):
            worker.submit(lambda: None)

    def test_wedged_worker_is_abandoned_within_the_timeout(self):
        # Satellite gate: a replica stuck mid-task (injected hang, runaway
        # kernel) must not hang interpreter shutdown.  close() gives up after
        # its hard timeout, flags the worker wedged, and returns.
        worker = ReplicaWorker(0)
        release = threading.Event()
        worker.submit(release.wait)
        started = time.perf_counter()
        assert worker.close(timeout=0.1) is False
        assert time.perf_counter() - started < 2.0
        assert worker.wedged
        assert worker.close(timeout=0.1) is False  # still wedged, still fast
        release.set()  # let the daemon thread exit cleanly

    def test_a_rebuild_never_leaves_a_closed_worker_in_place(self):
        # While the wedged worker's close waits out its timeout, a wave
        # submitted to the replica must reach the fresh worker.
        replica = EngineReplica(0, Database())
        release = threading.Event()
        old = replica.worker
        old.submit(release.wait)
        swap = threading.Thread(
            target=replica.replace_database, args=(Database(),), kwargs={"close_timeout": 0.5}
        )
        swap.start()
        while not old.closed:
            time.sleep(0.001)
        assert replica.submit(lambda: 7).result(timeout=2) == 7
        swap.join()
        release.set()
        assert replica.close()


class TestWavesQueuedBehindAWedge:
    """A wave queued on a worker never runs on the engine that replaced it."""

    BOUNDS = (100.0, 200.0)

    def test_a_rebuild_fails_the_queued_wave_retryably_and_untouched(self):
        router = Router(build_database(200), 2)
        try:
            prepared = router.prepare_statement(SQL)
            replica = router.replicas[0]
            release = threading.Event()
            replica.submit(release.wait)
            queued = router.executor(0).submit(
                router.execute_wave_on, 0, [(prepared, self.BOUNDS)]
            )
            clone = clone_database(replica.database)
            replica.replace_database(clone, close_timeout=0.05)
            release.set()
            with pytest.raises(TransientError, match="rebuilt"):
                queued.result(timeout=5)
            assert clone.query_history == []  # the rebuilt engine ran nothing
            assert replica.failures == 0 and replica.health is ReplicaHealth.HEALTHY
            # The retry admission makes lands on the fresh worker and answers.
            retried = replica.run(router.execute_wave_on, 0, [(prepared, self.BOUNDS)])[0]
            assert len(clone.query_history) == 1 and retried.row_count > 0
        finally:
            router.close()

    def test_only_the_current_worker_reaches_the_engine(self):
        replica = EngineReplica(0, Database())
        with pytest.raises(TransientError):
            replica.engine()  # the calling thread is no worker of the replica
        assert replica.run(replica.engine) is replica.database
        assert replica.close()

    def test_close_still_finishes_the_waves_queued_before_it(self):
        router = Router(build_database(200), 1)
        prepared = router.prepare_statement(SQL)
        release = threading.Event()
        router.replicas[0].submit(release.wait)
        queued = router.executor(0).submit(
            router.execute_wave_on, 0, [(prepared, self.BOUNDS)]
        )
        closer = threading.Thread(target=router.close)
        closer.start()
        release.set()
        closer.join()
        assert queued.result(timeout=5)[0].row_count > 0


class TestHealthStateMachine:
    def test_failures_escalate_healthy_suspect_quarantined(self):
        router = Router(build_database(200), 2, quarantine_after=2)
        try:
            assert router.record_wave_failure(1, RuntimeError("x")) is ReplicaHealth.SUSPECT
            assert router.record_wave_failure(1, RuntimeError("y")) is ReplicaHealth.QUARANTINED
            health = router.router_stats()["health"]
            assert health["states"] == ["healthy", "quarantined"]
            assert health["quarantines"] == 1
        finally:
            router.close()

    def test_success_heals_a_suspect_but_never_a_quarantined_replica(self):
        router = Router(build_database(200), 2, quarantine_after=2)
        try:
            router.record_wave_failure(1, RuntimeError("x"))
            router.record_wave_success(1)
            assert router.replicas[1].health is ReplicaHealth.HEALTHY
            assert router.replicas[1].consecutive_failures == 0
            router.record_wave_failure(1, RuntimeError("x"))
            router.record_wave_failure(1, RuntimeError("y"))
            # A stale wave completing late on the abandoned worker must not
            # sneak the replica back into rotation around the rebuild.
            router.record_wave_success(1)
            assert router.replicas[1].health is ReplicaHealth.QUARANTINED
        finally:
            router.close()

    def test_timeout_quarantines_immediately(self):
        router = Router(build_database(200), 2, quarantine_after=5)
        try:
            assert router.record_wave_timeout(1) is ReplicaHealth.QUARANTINED
            assert router.router_stats()["health"]["timeouts"] == 1
        finally:
            router.close()

    def test_the_last_routable_replica_is_never_quarantined(self):
        router = Router(build_database(200), 2, quarantine_after=1)
        try:
            assert router.quarantine_replica(1)
            assert not router.quarantine_replica(0)  # graceful degradation floor
            assert router.replicas[0].health is ReplicaHealth.HEALTHY
            assert router.router_stats()["health"]["quarantine_vetoes"] == 1
        finally:
            router.close()

    def test_route_avoids_quarantined_replicas(self):
        router = Router(build_database(500), 3)
        try:
            prepared = router.prepare_statement(SQL)
            router.quarantine_replica(1)
            indices = {router.route(prepared, (10.0, 20.0)) for _ in range(12)}
            assert 1 not in indices and indices <= {0, 2}
            assert router.healthy_indices() == [0, 2]
        finally:
            router.close()

    def test_quarantine_fails_over_preferred_clusters(self):
        # The table stays as retune() left it; route() sends each of the
        # victim's clusters to the survivor with the fewest modeled bytes.
        router = Router(build_database(500), 3, hot_query_threshold=1.0, quarantine_after=1)
        try:
            prepared = router.prepare_statement(SQL)
            rng = np.random.default_rng(5)
            for _ in range(64):
                low = float(rng.uniform(0.0, 900.0))
                wave_of(router, prepared, (low, low + 50.0))
            router.retune(n_clusters=3)
            stats = router.router_stats()
            assignment = stats["assignment"]
            victim = assignment["0"]
            assert router.quarantine_replica(victim)
            modeled = router.router_stats()["modeled_bytes"]
            assert sorted(modeled) == ["0", "1", "2"]
            survivors = [i for i in range(3) if i != victim]
            for cluster, shape in enumerate(stats["clusters"]["clusters"]):
                half = shape["width"] / 2.0
                bounds = (shape["center"] - half, shape["center"] + half)
                if assignment[str(cluster)] == victim:
                    expected = min(survivors, key=lambda i: (modeled[str(i)][cluster], i))
                else:
                    expected = assignment[str(cluster)]
                assert {router.route(prepared, bounds) for _ in range(4)} == {expected}
            assert router.router_stats()["assignment"] == assignment
            assert router.router_stats()["health"]["quarantines"] == 1
        finally:
            router.close()


class TestRebuild:
    def test_rebuild_restores_a_quarantined_replica(self):
        router = Router(build_database(500), 2, quarantine_after=1)
        try:
            prepared = router.prepare_statement(SQL)
            expected = wave_of(router, prepared, (100.0, 200.0))[0].row_count
            router.quarantine_replica(1)
            report = router.rebuild_replica(1)
            assert report == {"rebuilt": True, "replica": 1, "donor": 0}
            assert router.replicas[1].health is ReplicaHealth.HEALTHY
            assert router.replicas[1].rebuilds == 1
            result = router.replicas[1].run(
                router.execute_wave_on, 1, [(prepared, (100.0, 200.0))]
            )[0]
            assert result.row_count == expected
            assert router.router_stats()["health"]["rebuilds"] == 1
        finally:
            router.close()

    def test_a_rebuilt_replica_gets_its_clusters_back_without_a_retune(self):
        router = Router(build_database(500), 2, hot_query_threshold=0.9, quarantine_after=1)
        try:
            prepared = router.prepare_statement(SQL)
            rng = np.random.default_rng(4)
            modes = (100.0, 800.0)
            for _ in range(48):
                for mode in modes:
                    low = mode + float(rng.uniform(0.0, 10.0))
                    wave_of(router, prepared, (low, low + 5.0))
            assert router.retune()["retuned"]

            def routes() -> list[int]:
                return [router.route(prepared, (mode + 4.0, mode + 9.0)) for mode in modes]

            homes = routes()
            assert sorted(homes) == [0, 1]
            assert router.quarantine_replica(0)
            assert routes() == [1, 1]
            assert router.rebuild_replica(0)["rebuilt"] is True
            assert routes() == homes
        finally:
            router.close()

    def test_rebuild_carries_the_writes_the_fleet_has_taken(self):
        """insert → delete → quarantine → rebuild: the clone answers like its donor."""
        router = Router(build_database(500), 2, quarantine_after=1)
        try:
            prepared = router.prepare_statement(SQL)
            router.insert("t", {"v": np.array([150.0, 150.5, 900.0])})
            router.delete("t", np.array([0, 1, 2, 501]))
            donor_db = router.replicas[0].database
            router.quarantine_replica(1)
            assert router.rebuild_replica(1)["rebuilt"] is True
            rebuilt_db = router.replicas[1].database
            assert rebuilt_db.catalog.table("t").row_count == donor_db.catalog.table("t").row_count
            for bounds in [(899.0, 901.0), (0.0, 1000.0), (100.0, 200.0)]:
                donor, rebuilt = (
                    router.replicas[index].run(
                        router.execute_wave_on, index, [(prepared, bounds)]
                    )[0]
                    for index in (0, 1)
                )
                assert sorted(rebuilt.columns["v"].tolist()) == sorted(
                    donor.columns["v"].tolist()
                )
            answer = rebuilt.columns["v"].tolist()
            # The live insert is there; the deleted insert is not.
            assert 150.0 in answer and 150.5 not in answer
            # The clone owns its arrays: a later write to one side stays there.
            router.replicas[0].run(donor_db.insert, "t", {"v": np.array([1.0])})
            assert rebuilt_db.catalog.table("t").row_count == 499
        finally:
            router.close()

    @pytest.mark.parametrize("name, value", [("apm_m_min", 2 * KB), ("apm_m_max", 16 * KB)])
    def test_a_rebuilt_replica_keeps_the_fleet_knob(self, name, value):
        # The clone applies its donor's live knobs, so a rebuild cannot fall
        # back to a constructor or enable-time value.
        from repro.cluster.replica import clone_database
        from repro.tuning.knobs import knob_table, set_knobs

        database = build_database(200)
        database.set_knobs({"apm_m_max": 24 * KB})
        assert clone_database(database).knobs()["apm_m_max"] == 24 * KB
        router = Router(database, 2)
        try:
            assert [r.database.knobs()["apm_m_max"] for r in router.replicas] == [24 * KB] * 2
            set_knobs(router, {name: value})
            router.quarantine_replica(1)
            assert router.rebuild_replica(1)["rebuilt"] is True
            assert [r.database.knobs()[name] for r in router.replicas] == [value, value]
            row = next(row for row in knob_table(router) if row["name"] == name)
            assert row["value"] == value
        finally:
            router.close()

    def test_a_closed_router_rebuilds_nothing(self):
        # A rebuild that reaches the router after close() (an admission
        # layer's pool thread outliving its stop) must not start a worker.
        router = Router(build_database(200), 2)
        router.quarantine_replica(1)
        router.close()
        assert router.rebuild_replica(1) == {"rebuilt": False, "reason": "router is closed"}
        assert not router.replicas[1].worker.alive

    def test_rebuild_refuses_a_replica_that_is_not_quarantined(self):
        router = Router(build_database(200), 2)
        try:
            report = router.rebuild_replica(1)
            assert report["rebuilt"] is False and "not quarantined" in report["reason"]
        finally:
            router.close()

    def test_rebuild_swaps_in_a_fresh_worker_for_a_wedged_one(self):
        router = Router(build_database(200), 2, quarantine_after=1)
        try:
            release = threading.Event()
            router.replicas[1].submit(release.wait)  # wedge the worker
            router.quarantine_replica(1)
            report = router.rebuild_replica(1)
            assert report["rebuilt"] is True
            # The new worker answers even though the old thread is stuck.
            assert router.replicas[1].run(lambda: 42) == 42
            release.set()
        finally:
            router.close()


class TestCrashStreamProperty:
    """The tentpole gate: N−1 crashes mid-stream, correct-or-transient."""

    N_REPLICAS = 4
    N_QUERIES = 48

    @staticmethod
    def query_bounds(seed: int = 23) -> list[tuple[float, float]]:
        rng = np.random.default_rng(seed)
        bounds = []
        for _ in range(TestCrashStreamProperty.N_QUERIES):
            low = float(rng.uniform(0.0, 900.0))
            bounds.append((low, low + float(rng.uniform(10.0, 80.0))))
        return bounds

    @staticmethod
    def serial_answers(bounds: list[tuple[float, float]]) -> dict[tuple, list[float]]:
        database = build_database()
        prepared = database.prepare_statement(SQL)
        answers = {}
        for pair in bounds:
            result = database.execute_prepared(prepared, pair)
            answers[pair] = sorted(result.columns["v"].tolist())
        return answers

    def test_crashes_of_up_to_three_replicas_keep_answers_correct(self):
        bounds = self.query_bounds()
        serial = self.serial_answers(bounds)

        injector = FaultInjector(seed=97)
        # Crash three of the four replicas at seeded points mid-stream; each
        # crash spec is finite, so the rebuilt replica serves cleanly after.
        for replica in (1, 2, 3):
            injector.schedule("wave.execute", at=1, action="crash", replica=replica)

        async def go():
            server = ReproServer(
                build_database(),
                port=0,
                replicas=self.N_REPLICAS,
                batch_window_us=500.0,
                max_retries=3,
                retry_backoff_s=0.005,
                injector=injector,
                router_knobs={"quarantine_after": 1},
            )
            async with server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                outcomes = await asyncio.gather(
                    *(statement.execute(pair) for pair in bounds),
                    return_exceptions=True,
                )
                # The fleet must converge back to full health (rebuilds are
                # background tasks kicked off by the admission layer).
                deadline = time.perf_counter() + 10.0
                while time.perf_counter() < deadline:
                    health = (await connection.admin.router_stats())["health"]
                    if all(state == "healthy" for state in health["states"]):
                        break
                    await asyncio.sleep(0.05)
                stats = await connection.admin.router_stats()
                await connection.close()
            return outcomes, stats

        outcomes, stats = asyncio.run(go())

        completed = 0
        for pair, outcome in zip(bounds, outcomes):
            if isinstance(outcome, BaseException):
                # The only acceptable failure is a clean transient/operational
                # error — never a wrong answer, never a hang.
                assert isinstance(outcome, OperationalError), outcome
            else:
                completed += 1
                assert sorted(outcome.columns["v"].tolist()) == serial[pair]
        assert completed >= self.N_QUERIES - 3  # retries absorb almost everything

        health = stats["health"]
        assert injector.fired("wave.execute") == 3
        assert health["quarantines"] >= 1
        assert health["rebuilds"] > 0
        assert all(state == "healthy" for state in health["states"])

    def test_fig5_7_fixture_is_untouched(self):
        """The paper-accounting fixture must survive the fault-tolerance layer."""
        fixture = (
            Path(__file__).resolve().parent.parent
            / "data"
            / "fig5_7_accounting_fixture.json"
        )
        digest = hashlib.sha256(fixture.read_bytes()).hexdigest()
        assert digest == (
            "9989a99ee8f25d5c5e7017f208316d705b5df4c9889cedf8f1c16cb61ec8c91b"
        )


class TestRouterClose:
    def test_close_with_a_wedged_replica_returns_promptly(self):
        router = Router(build_database(200), 2)
        release = threading.Event()
        router.replicas[1].submit(release.wait)
        started = time.perf_counter()
        assert router.close(timeout=0.1) is False
        assert time.perf_counter() - started < 2.0
        assert router.replicas[1].wedged and not router.replicas[0].wedged
        assert router.close() is False  # idempotent, still reports the wedge
        release.set()

    def test_clean_close_reports_true(self):
        router = Router(build_database(200), 2)
        assert router.close() is True
        assert router.close() is True

    def test_close_releases_the_result_history_of_every_joined_replica(self):
        def fleet_with_history() -> Router:
            router = Router(build_database(200), 2)
            prepared = router.prepare_statement(SQL)
            for index, replica in enumerate(router.replicas):
                replica.run(router.execute_wave_on, index, [(prepared, (100.0, 200.0))] * 3)
            assert [len(r.database.query_history) for r in router.replicas] == [3, 3]
            return router

        router = fleet_with_history()
        seed_engine = router.database
        assert router.close() is True
        assert [r.database.query_history for r in router.replicas] == [[], []]
        assert seed_engine.query_history == []  # replica 0 is the engine handed in

        router = fleet_with_history()
        release = threading.Event()
        router.replicas[1].submit(release.wait)
        assert router.close(timeout=0.1) is False
        # The wedged worker may still be appending: its engine is left alone.
        assert [len(r.database.query_history) for r in router.replicas] == [0, 3]
        release.set()

"""Server-side fault tolerance: member isolation, retry, deadlines, drain.

Satellite regression for the wave-as-one-unit failure mode: before the
``isolate=True`` engine pass, one malformed member failed its *entire* wave —
every co-batched healthy query of every other connection got the poison
member's error.  Now the poison member resolves with its own exception while
its wave-mates complete normally.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.aio
from repro.api.exceptions import Error, OperationalError, ProgrammingError
from repro.cluster import Router
from repro.engine.database import Database
from repro.fault import FaultInjector
from repro.server import ReproServer
from repro.server.admission import AdmissionController

SQL_T = "SELECT v FROM t WHERE v BETWEEN ? AND ?"
SQL_U = "SELECT w FROM u WHERE w BETWEEN ? AND ?"


def run(main):
    return asyncio.run(main())


def build_database(n_rows: int = 1_000, seed: int = 3) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table("t", {"v": "float64"})
    database.bulk_load("t", {"v": rng.uniform(0.0, 100.0, size=n_rows)})
    database.enable_adaptive("t", "v", strategy="segmentation")
    return database


class TestMemberIsolation:
    def test_engine_wave_isolates_a_poison_member(self):
        # The regression at its root: one stale statement (its table dropped
        # after preparing) among healthy wave-mates.  Un-isolated, the whole
        # wave raised; isolated, the poison slot carries its own exception.
        database = build_database()
        database.create_table("u", {"w": "float64"})
        database.bulk_load(
            "u", {"w": np.random.default_rng(5).uniform(0.0, 100.0, size=200)}
        )
        healthy = database.prepare_statement(SQL_T)
        poison = database.prepare_statement(SQL_U)
        database.drop_table("u")
        results = database.execute_wave(
            [
                (healthy, (10.0, 20.0)),
                (poison, (10.0, 20.0)),
                (healthy, (30.0, 40.0)),
            ],
            isolate=True,
        )
        assert len(results) == 3
        assert not isinstance(results[0], BaseException)
        assert isinstance(results[1], BaseException)
        assert not isinstance(results[2], BaseException)

    def test_one_malformed_member_does_not_fail_its_wave_mates(self):
        # End-to-end over sockets: the malformed member and healthy queries
        # share one admission window; only the malformed one errors.
        async def go():
            server = ReproServer(build_database(), port=0, batch_window_us=5_000.0)
            async with server:
                connection = await repro.aio.connect(*server.address)
                await connection.admin.create_table("u", {"w": "float64"})
                await connection.admin.bulk_load(
                    "u", {"w": np.linspace(0.0, 100.0, 50)}
                )
                healthy = await connection.prepare(SQL_T)
                poison = await connection.prepare(SQL_U)
                await connection.admin.drop_table("u")
                outcomes = await asyncio.gather(
                    healthy.execute((10.0, 20.0)),
                    poison.execute((10.0, 20.0)),
                    healthy.execute((30.0, 40.0)),
                    return_exceptions=True,
                )
                stats = await connection.admin.admission_stats()
                await connection.close()
            return outcomes, stats

        outcomes, stats = run(go)
        assert not isinstance(outcomes[0], BaseException)
        assert isinstance(outcomes[1], Error)
        assert not isinstance(outcomes[2], BaseException)
        assert stats["member_failures"] >= 1
        assert stats["completed"] >= 2


class TestStaleStatementOnAFleet:
    def test_a_stale_statement_fails_alone_on_a_two_replica_server(self):
        # One statement whose table was dropped rides a window with seven
        # healthy wave-mates spread over two replicas.  Its re-preparation
        # fails inside the isolated wave, so it fails alone — no replica
        # failure, no quarantine, no retry.
        async def go():
            server = ReproServer(
                build_database(), port=0, replicas=2, batch_window_us=20_000.0
            )
            async with server:
                connection = await repro.aio.connect(*server.address)
                await connection.admin.create_table("u", {"w": "float64"})
                await connection.admin.bulk_load(
                    "u", {"w": np.linspace(0.0, 100.0, 50)}
                )
                healthy = await connection.prepare(SQL_T)
                poison = await connection.prepare(SQL_U)
                await connection.admin.drop_table("u")
                bounds = [(float(low), low + 10.0) for low in range(0, 70, 10)]
                outcomes = await asyncio.gather(
                    poison.execute((10.0, 20.0)),
                    *(healthy.execute(pair) for pair in bounds),
                    return_exceptions=True,
                )
                health = (await connection.admin.router_stats())["health"]
                admission = await connection.admin.admission_stats()
                await connection.close()
            return outcomes, health, admission

        outcomes, health, admission = run(go)
        assert isinstance(outcomes[0], ProgrammingError)
        assert all(not isinstance(outcome, BaseException) for outcome in outcomes[1:])
        assert health["wave_failures"] == 0 and health["quarantines"] == 0
        assert admission["retries"] == 0
        assert admission["member_failures"] == 1


class TestRetryOnFailover:
    def test_a_crashed_wave_is_retried_on_a_sibling_replica(self):
        async def go():
            injector = FaultInjector(seed=7)
            injector.schedule("wave.execute", at=1, action="crash", replica=1)
            router = Router(
                build_database(), 2, quarantine_after=1, injector=injector
            )
            admission = AdmissionController(
                router,
                batch_window_us=500.0,
                max_retries=2,
                retry_backoff_s=0.001,
            )
            await admission.start()
            try:

                async def one(prepared, low):
                    future = await admission.submit(0, prepared, (low, low + 10.0))
                    return await future

                prepared = router.prepare_statement(SQL_T)
                results = await asyncio.gather(
                    *(one(prepared, float(low)) for low in range(0, 60, 5))
                )
                return results, admission.stats, injector
            finally:
                await admission.stop()
                router.close()

        results, stats, injector = run(go)
        assert all(not isinstance(result, BaseException) for result in results)
        assert injector.fired("wave.execute") == 1
        assert stats.retries >= 1
        assert stats.completed == len(results)

    def test_retries_exhausted_fails_the_wave_with_transient_error(self):
        async def go():
            injector = FaultInjector(seed=7)
            # Every wave on every replica crashes: retries cannot save this.
            for replica in (0, 1):
                injector.schedule(
                    "wave.execute", at=1, action="crash", count=50, replica=replica
                )
            router = Router(
                build_database(), 2, quarantine_after=10, injector=injector
            )
            admission = AdmissionController(
                router,
                batch_window_us=0.0,
                max_retries=1,
                retry_backoff_s=0.001,
            )
            await admission.start()
            try:
                prepared = router.prepare_statement(SQL_T)
                future = await admission.submit(0, prepared, (10.0, 20.0))
                with pytest.raises(OperationalError):
                    await future
                return admission.stats
            finally:
                await admission.stop()
                router.close()

        stats = run(go)
        assert stats.failed >= 1
        assert stats.retries >= 1


class TestLiteralReadFailover:
    def test_a_literal_read_is_retried_on_the_surviving_replica(self):
        # Literal text reaches the wave path: the armed crash fires on its
        # wave, and admission answers it from the sibling replica.
        async def go():
            injector = FaultInjector(seed=7)
            injector.schedule("wave.execute", at=1, action="crash")
            server = ReproServer(
                build_database(), port=0, replicas=2, injector=injector,
                retry_backoff_s=0.001, auto_rebuild=False,
            )
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(
                    "SELECT v FROM t WHERE v BETWEEN 10.0 AND 20.0"
                )
                health = (await connection.admin.router_stats())["health"]
                admission = await connection.admin.admission_stats()
                await connection.close()
            return cursor.result, health, admission, injector

        result, health, admission, injector = run(go)
        values = np.random.default_rng(3).uniform(0.0, 100.0, size=1_000)
        expected = values[(values >= 10.0) & (values <= 20.0)]
        assert np.array_equal(np.sort(result.columns["v"]), np.sort(expected))
        assert injector.fired("wave.execute") == 1
        assert health["wave_failures"] == 1
        assert admission["retries"] == 1


class TestWaveDeadline:
    def test_a_blown_deadline_quarantines_and_fails_over(self):
        async def go():
            injector = FaultInjector(seed=7)
            # Replica 0's first wave hangs well past the deadline; the wave
            # must be abandoned, the replica quarantined, the wave retried on
            # replica 1 — and the client still gets its rows.
            injector.schedule(
                "wave.execute", at=1, action="hang", delay_s=0.5, replica=0
            )
            router = Router(
                build_database(), 2, quarantine_after=1, injector=injector
            )
            admission = AdmissionController(
                router,
                batch_window_us=500.0,
                wave_deadline_s=0.05,
                max_retries=2,
                retry_backoff_s=0.001,
                auto_rebuild=False,
            )
            await admission.start()
            try:

                async def one(prepared, low):
                    future = await admission.submit(0, prepared, (low, low + 10.0))
                    return await future

                prepared = router.prepare_statement(SQL_T)
                results = await asyncio.gather(
                    *(one(prepared, float(low)) for low in range(0, 40, 5))
                )
                health = router.router_stats()["health"]
                return results, admission.stats, health
            finally:
                await admission.stop()
                router.close()

        results, stats, health = run(go)
        assert all(not isinstance(result, BaseException) for result in results)
        assert stats.wave_timeouts >= 1
        assert health["timeouts"] >= 1
        assert health["quarantines"] >= 1


class TestGracefulDrain:
    def test_drain_completes_queued_waves_then_refuses_new_work(self):
        async def go():
            router = Router(build_database(), 1)
            admission = AdmissionController(
                router,
                batch_window_us=20_000.0,  # long window: requests queue up
            )
            await admission.start()
            try:
                prepared = router.prepare_statement(SQL_T)
                futures = [
                    await admission.submit(0, prepared, (float(low), low + 10.0))
                    for low in range(0, 40, 5)
                ]
                drained = await admission.drain(timeout=5.0)
                results = [future.result() for future in futures]
                with pytest.raises(OperationalError, match="draining"):
                    await admission.submit(0, prepared, (1.0, 2.0))
                return drained, results
            finally:
                await admission.stop()
                router.close()

        drained, results = run(go)
        assert drained is True
        assert len(results) == 8
        assert all(not isinstance(result, BaseException) for result in results)

    def test_server_stop_drains_inflight_waves(self):
        # Requests admitted before stop() still deliver their answers: the
        # listener closes first, the waves run to completion, then sockets go.
        async def go():
            server = ReproServer(
                build_database(), port=0, batch_window_us=10_000.0
            )
            async with server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL_T)
                tasks = [
                    asyncio.ensure_future(statement.execute((float(low), low + 10.0)))
                    for low in range(0, 40, 5)
                ]
                await asyncio.sleep(0)  # let the frames reach the server
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                await connection.close()
            return outcomes

        outcomes = run(go)
        assert all(not isinstance(outcome, BaseException) for outcome in outcomes)


class TestFleetOfOne:
    """A single-engine server is a Router of one replica: same failure handling."""

    def test_single_engine_admission_still_isolates_members(self):
        # A poison member in a single-engine wave resolves alone.
        async def go():
            database = build_database()
            database.create_table("u", {"w": "float64"})
            database.bulk_load("u", {"w": np.linspace(0.0, 100.0, 50)})
            healthy = database.prepare_statement(SQL_T)
            poison = database.prepare_statement(SQL_U)
            database.drop_table("u")
            router = Router(database, 1)
            admission = AdmissionController(router, batch_window_us=5_000.0)
            await admission.start()
            try:
                futures = [
                    await admission.submit(0, healthy, (10.0, 20.0)),
                    await admission.submit(0, poison, (10.0, 20.0)),
                    await admission.submit(0, healthy, (30.0, 40.0)),
                ]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                return outcomes, admission.stats
            finally:
                await admission.stop()
                router.close()

        outcomes, stats = run(go)
        assert not isinstance(outcomes[0], BaseException)
        assert isinstance(outcomes[1], BaseException)
        assert not isinstance(outcomes[2], BaseException)
        assert stats.member_failures == 1

    def test_a_fault_injector_fires_on_a_single_engine_server(self):
        # An armed wave.execute crash fires without --replicas, and the
        # crashed wave is retried on the only replica.
        async def go():
            injector = FaultInjector(seed=7)
            injector.schedule("wave.execute", at=1, action="crash", replica=0)
            server = ReproServer(
                build_database(), port=0, injector=injector, retry_backoff_s=0.001
            )
            async with server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL_T)
                result = await statement.execute((10.0, 20.0))
                admission = await connection.admin.admission_stats()
                router = await connection.admin.router_stats()
                await connection.close()
            return injector, result, admission, router

        injector, result, admission, router = run(go)
        assert injector.log and injector.log[0]["site"] == "wave.execute"
        health = router["health"]
        expected = build_database().execute(
            "SELECT v FROM t WHERE v BETWEEN 10.0 AND 20.0"
        )
        assert sorted(result.columns["v"]) == sorted(expected.columns["v"].tolist())
        assert admission["retries"] == 1 and admission["failed"] == 0
        assert health["wave_failures"] == 1
        assert health["states"] == ["healthy"]

    def test_a_blown_deadline_on_the_only_replica_is_vetoed_from_quarantine(self):
        async def go():
            injector = FaultInjector(seed=7)
            # The first wave hangs past its deadline; the retry waits out
            # the hang in its backoff and then runs on the same replica.
            injector.schedule("wave.execute", at=1, action="hang", delay_s=0.3)
            router = Router(build_database(), 1, injector=injector)
            admission = AdmissionController(
                router, batch_window_us=0.0, wave_deadline_s=0.2,
                max_retries=2, retry_backoff_s=0.5,
            )
            await admission.start()
            try:
                prepared = router.prepare_statement(SQL_T)
                result = await (await admission.submit(0, prepared, (10.0, 20.0)))
                return result, admission.stats, router.router_stats()["health"]
            finally:
                await admission.stop()
                router.close()

        result, stats, health = run(go)
        assert result.row_count > 0
        assert stats.wave_timeouts >= 1 and stats.retries == stats.wave_timeouts
        assert health["quarantine_vetoes"] == health["timeouts"] == stats.wave_timeouts
        assert health["quarantines"] == 0 and health["states"] == ["healthy"]

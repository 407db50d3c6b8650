"""The batch admission controller: windows, waves, backpressure, fairness.

Every test runs a fleet of one (``Router(fake, 1)``) over a fake database
whose ``execute_wave`` records the waves it was handed, so wave composition
is asserted directly — the real engine integration is covered by
``tests/server/test_server.py`` and the ``execute_wave`` tests in
``tests/engine/test_batch_execution.py``.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api.exceptions import OperationalError, TransientError
from repro.cluster import Router
from repro.server.admission import AdmissionController, AdmissionStats

#: Long enough that a test can queue several submissions inside one window,
#: short enough that draining (and ``stop()``) stays fast.
WINDOW_US = 50_000.0


class FakeDatabase:
    """Records every wave; answers member ``(prepared, values)`` with values."""

    def __init__(self, fail: Exception | None = None):
        self.waves: list[list[tuple]] = []
        self.fail = fail
        self.query_history: list = []

    def execute_wave(self, payload, *, isolate=False):
        self.waves.append(list(payload))
        if self.fail is not None:
            raise self.fail
        return [values for _, values in payload]

    def close(self, *, wait=True):
        pass


class Controller:
    """An async context manager pairing a controller with its fleet of one."""

    def __init__(self, database=None, **knobs):
        self.database = database if database is not None else FakeDatabase()
        self.router = Router(self.database, 1)
        self.controller = AdmissionController(self.router, **knobs)

    async def __aenter__(self):
        await self.controller.start()
        return self

    async def __aexit__(self, *exc_info):
        await self.controller.stop()
        self.router.close()

    def __getattr__(self, name):
        return getattr(self.controller, name)


class TestConstruction:
    def test_rejects_bad_knobs(self):
        with Router(FakeDatabase(), 1) as router:
            with pytest.raises(ValueError):
                AdmissionController(router, batch_window_us=-1.0)
            with pytest.raises(ValueError):
                AdmissionController(router, max_inflight=0)
            with pytest.raises(ValueError):
                AdmissionController(router, max_wave=0)
            with pytest.raises(ValueError):
                AdmissionController(router, overflow="drop")
            with pytest.raises(ValueError):
                AdmissionController(router, max_inflight_per_connection=0)

    def test_a_server_rejecting_a_setting_stops_its_fleet(self):
        from repro.server import ReproServer

        with pytest.raises(ValueError):
            ReproServer(max_wave=0)
        assert not [
            thread for thread in threading.enumerate()
            if thread.name.startswith("repro-replica")
        ]

    def test_per_connection_cap_defaults_to_a_quarter(self):
        with Router(FakeDatabase(), 1) as router:
            controller = AdmissionController(router, max_inflight=100)
            assert controller.max_inflight_per_connection == 25
            assert controller.knobs()["max_inflight_per_connection"] == 25

    def test_submit_before_start_raises(self):
        with Router(FakeDatabase(), 1) as router:
            controller = AdmissionController(router)
            with pytest.raises(OperationalError, match="not running"):
                asyncio.run(controller.submit("c1", object(), (1.0,)))


class TestWaves:
    def test_concurrent_submissions_ride_one_wave(self):
        async def go():
            async with Controller(batch_window_us=WINDOW_US) as controller:
                plan = object()
                futures = [
                    await controller.submit(f"conn-{i}", plan, (float(i), float(i) + 1))
                    for i in range(3)
                ]
                results = await asyncio.gather(*futures)
                return controller.database.waves, results, controller.stats

        waves, results, stats = asyncio.run(go())
        assert len(waves) == 1 and len(waves[0]) == 3
        assert results == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        assert stats.waves == 1
        assert stats.wave_members == 3
        assert stats.last_wave == 3 and stats.max_wave_seen == 3
        assert stats.admitted == stats.completed == 3
        assert stats.connections_seen == {"conn-0", "conn-1", "conn-2"}

    def test_max_wave_splits_a_backlog(self):
        async def go():
            async with Controller(
                batch_window_us=WINDOW_US, max_wave=2,
                max_inflight_per_connection=16,
            ) as controller:
                plan = object()
                futures = [
                    await controller.submit("conn", plan, (float(i),))
                    for i in range(5)
                ]
                await asyncio.gather(*futures)
                return controller.database.waves

        waves = asyncio.run(go())
        assert [len(wave) for wave in waves] == [2, 2, 1]

    def test_wave_failure_is_retried_then_fails_every_member_transiently(self):
        # An exception escaping execute_wave(isolate=True) is the replica's,
        # not a member's: the wave is retried (on a fleet of one, on the same
        # replica) and, once retries run out, every member gets the
        # TransientError.
        async def go():
            database = FakeDatabase(fail=KeyError("no such table"))
            async with Controller(
                database, batch_window_us=1.0, retry_backoff_s=0.0
            ) as controller:
                futures = [
                    await controller.submit("conn", object(), (float(i),))
                    for i in range(2)
                ]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                return outcomes, controller.stats, database.waves

        outcomes, stats, waves = asyncio.run(go())
        assert all(isinstance(o, TransientError) for o in outcomes)
        assert stats.failed == 2 and stats.completed == 0
        assert stats.retries == 2 and len(waves) == 3

    def test_zero_window_still_batches_a_burst(self):
        async def go():
            async with Controller(batch_window_us=0.0) as controller:
                plan = object()
                futures = [
                    await controller.submit("conn-a", plan, (float(i),))
                    for i in range(4)
                ]
                await asyncio.gather(*futures)
                return controller.database.waves

        waves = asyncio.run(go())
        # No window: the flush loop drains whatever piled up while the event
        # loop was busy — everything submitted before the first drain batches.
        assert sum(len(wave) for wave in waves) == 4


class TestFairness:
    def test_waves_drain_round_robin_across_connections(self):
        async def go():
            async with Controller(
                batch_window_us=WINDOW_US, max_wave=4,
                max_inflight_per_connection=32,
            ) as controller:
                plan = object()
                futures = [
                    await controller.submit("hog", plan, (float(i),))
                    for i in range(10)
                ]
                futures.append(await controller.submit("tick", plan, (99.0,)))
                await asyncio.gather(*futures)
                return controller.database.waves

        waves = asyncio.run(go())
        # The interactive client's lone query rides the very first wave even
        # though the hog queued 10 requests ahead of it.
        assert (99.0,) in [values for _, values in waves[0]]

    def test_per_connection_cap_blocks_the_hog_not_the_neighbour(self):
        async def go():
            async with Controller(
                batch_window_us=WINDOW_US, max_inflight_per_connection=2
            ) as controller:
                plan = object()
                first = await controller.submit("hog", plan, (1.0,))
                second = await controller.submit("hog", plan, (2.0,))
                blocked = asyncio.ensure_future(
                    controller.submit("hog", plan, (3.0,))
                )
                await asyncio.sleep(0)
                assert not blocked.done()  # the hog is over its cap: it waits
                neighbour = await controller.submit("other", plan, (4.0,))
                assert controller.connection_pending("hog") == 2
                assert controller.connection_pending("other") == 1
                third = await blocked  # a drained wave unblocks the hog
                await asyncio.gather(first, second, neighbour, third)
                return controller.database.waves

        waves = asyncio.run(go())
        assert sum(len(wave) for wave in waves) == 4


class TestBackpressure:
    def test_overflow_error_rejects_beyond_max_inflight(self):
        async def go():
            async with Controller(
                batch_window_us=WINDOW_US, max_inflight=2,
                max_inflight_per_connection=8, overflow="error",
            ) as controller:
                plan = object()
                futures = [
                    await controller.submit("conn", plan, (1.0,)),
                    await controller.submit("conn", plan, (2.0,)),
                ]
                with pytest.raises(OperationalError, match="admission queue full"):
                    await controller.submit("conn", plan, (3.0,))
                rejected = controller.stats.rejected_overflow
                await asyncio.gather(*futures)
                return rejected

        assert asyncio.run(go()) == 1

    def test_overflow_wait_blocks_until_a_wave_drains(self):
        async def go():
            async with Controller(
                batch_window_us=WINDOW_US, max_inflight=2,
                max_inflight_per_connection=8, overflow="wait",
            ) as controller:
                plan = object()
                futures = [
                    await controller.submit("conn", plan, (1.0,)),
                    await controller.submit("conn", plan, (2.0,)),
                ]
                waiting = asyncio.ensure_future(
                    controller.submit("conn", plan, (3.0,))
                )
                await asyncio.sleep(0)
                assert not waiting.done()
                futures.append(await waiting)  # resolves after the first drain
                results = await asyncio.gather(*futures)
                stats = controller.stats
                return results, stats

        results, stats = asyncio.run(go())
        assert sorted(results) == [(1.0,), (2.0,), (3.0,)]
        assert stats.rejected_overflow == 0
        assert stats.completed == 3


class TestLifecycle:
    def test_stop_fails_everything_still_queued(self):
        async def go():
            wrapper = Controller(batch_window_us=WINDOW_US)
            controller = await wrapper.__aenter__()
            future = await controller.submit("conn", object(), (1.0,))
            await wrapper.__aexit__(None, None, None)
            with pytest.raises(OperationalError, match="shutting down"):
                await future
            assert controller.pending == 0
            with pytest.raises(OperationalError, match="not running"):
                await controller.submit("conn", object(), (2.0,))

        asyncio.run(go())

    def test_forget_connection_cancels_its_queue_only(self):
        async def go():
            async with Controller(batch_window_us=WINDOW_US) as controller:
                plan = object()
                doomed = await controller.submit("gone", plan, (1.0,))
                doomed_too = await controller.submit("gone", plan, (2.0,))
                kept = await controller.submit("alive", plan, (3.0,))
                controller.forget_connection("gone")
                assert controller.connection_pending("gone") == 0
                assert controller.connection_pending("alive") == 1
                assert doomed.cancelled() or doomed.done() is False
                result = await kept
                return doomed, doomed_too, result, controller.database.waves

        doomed, doomed_too, result, waves = asyncio.run(go())
        assert doomed.cancelled() and doomed_too.cancelled()
        assert result == (3.0,)
        # The forgotten connection's requests never reached the engine.
        assert all(values == (3.0,) for wave in waves for _, values in wave)


class TestStats:
    def test_as_dict_shape(self):
        stats = AdmissionStats()
        stats.admitted = 5
        stats.waves = 2
        stats.wave_members = 5
        rendered = stats.as_dict(pending=1)
        assert rendered["admitted"] == 5
        assert rendered["mean_wave"] == 2.5
        assert rendered["pending"] == 1
        assert set(rendered) == {
            "admitted", "completed", "failed", "rejected_overflow",
            "waves", "last_wave", "max_wave_seen", "mean_wave", "pending",
            "retries", "wave_timeouts", "member_failures", "rebuilds_started",
        }

    def test_mean_wave_is_zero_before_any_wave(self):
        assert AdmissionStats().as_dict(pending=0)["mean_wave"] == 0.0

    def test_knobs_mirror_the_constructor(self):
        with Router(FakeDatabase(), 1) as router:
            controller = AdmissionController(
                router, batch_window_us=125.0, max_inflight=64, max_wave=8,
                max_inflight_per_connection=4, overflow="wait",
            )
        assert controller.knobs() == {
            "batch_window_us": 125.0,
            "max_inflight": 64,
            "max_wave": 8,
            "max_inflight_per_connection": 4,
            "overflow": "wait",
            "wave_deadline_s": None,
            "max_retries": 2,
            "retry_backoff_s": 0.05,
            "auto_rebuild": True,
            "replicas": 1,
        }

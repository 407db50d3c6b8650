"""Client-side resilience: request timeouts, reconnect, idempotent retry.

Satellite gates: a request against a stalled server times out cleanly
(``TransientError``) — alone, near its deadline, under the connection's one
deadline timer — a dropped socket redials with backoff when
``reconnect=True``, a mid-``executemany`` disconnect surfaces a clean
``OperationalError`` (no hang, no orphaned task), and only text-bearing
idempotent reads are ever retried — statement-id frames never are.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.aio
from repro.api.exceptions import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
    TransientError,
)
from repro.engine.database import Database
from repro.fault import FaultInjector
from repro.server import ReproServer
from repro.server.protocol import PROTOCOL_VERSION, read_frame, write_frame

SQL = "SELECT v FROM t WHERE v BETWEEN ? AND ?"


def run(main):
    return asyncio.run(main())


def build_database(n_rows: int = 500, seed: int = 3) -> Database:
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table("t", {"v": "float64"})
    database.bulk_load("t", {"v": rng.uniform(0.0, 100.0, size=n_rows)})
    database.enable_adaptive("t", "v", strategy="segmentation")
    return database


class TestAdminErrors:
    def test_deleting_an_unallocated_oid_is_a_programming_error(self):
        async def go():
            async with ReproServer(build_database(50), port=0) as server:
                connection = await repro.aio.connect(*server.address)
                await connection.admin.delete("t", [3, 3])
                with pytest.raises(ProgrammingError, match="outside"):
                    await connection.admin.delete("t", [50])
                await connection.admin.delete("t", [3])  # the connection survives
                cursor = await connection.execute(SQL, (0.0, 100.0))
                await connection.close()
                return cursor.rowcount

        assert run(go) == 49


class _StalledServer:
    """Answers the HELLO handshake, then goes silent forever."""

    def __init__(self) -> None:
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

    async def __aenter__(self) -> "_StalledServer":
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self

    async def __aexit__(self, *exc_info) -> None:
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            frame = await read_frame(reader)
            if frame and frame.get("type") == "hello":
                write_frame(
                    writer,
                    {
                        "type": "hello",
                        "id": frame.get("id"),
                        "server": "stalled",
                        "version": "0",
                        "protocol": PROTOCOL_VERSION,
                        "knobs": {},
                    },
                )
                await writer.drain()
            while await read_frame(reader) is not None:
                pass  # read and ignore: the stall
        except (ConnectionError, asyncio.IncompleteReadError):
            pass


class _VanishingServer(_StalledServer):
    """Handshakes, then slams the socket shut on the first executemany."""

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                if frame.get("type") == "hello":
                    write_frame(
                        writer,
                        {
                            "type": "hello",
                            "id": frame.get("id"),
                            "server": "vanishing",
                            "version": "0",
                            "protocol": PROTOCOL_VERSION,
                            "knobs": {},
                        },
                    )
                    await writer.drain()
                    continue
                if frame.get("type") == "executemany":
                    writer.transport.abort()  # mid-request disconnect
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass


class _AnsweringServer(_StalledServer):
    """Answers every ``execute`` at once with an empty one-column result — except
    ``sql == "stall"``, which it answers ``late_s`` seconds later (never if ``None``)."""

    def __init__(self, late_s: float | None = None) -> None:
        super().__init__()
        self.late_s = late_s

    async def _handle(self, reader, writer) -> None:
        late: list[asyncio.Task] = []

        async def answer_late(request_id) -> None:
            await asyncio.sleep(self.late_s)
            write_frame(writer, self._result(request_id, "late"))

        try:
            while (frame := await read_frame(reader)) is not None:
                kind = frame.get("type")
                if kind == "hello":
                    write_frame(writer, {
                        "type": "hello", "id": frame["id"], "server": "answering",
                        "version": "0", "protocol": PROTOCOL_VERSION, "knobs": {},
                    })
                elif kind == "close":
                    write_frame(writer, {"type": "closed", "id": frame["id"]})
                elif frame.get("sql") != "stall":
                    write_frame(writer, self._result(frame["id"], frame.get("sql", "bound")))
                elif self.late_s is not None:
                    late.append(asyncio.get_running_loop().create_task(answer_late(frame["id"])))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for task in late:
                task.cancel()

    @staticmethod
    def _result(request_id, level: str) -> dict:
        return {"type": "result", "id": request_id, "rowcount": 0, "cache_level": level,
                "batched": False, "columns": {"v": np.empty(0)}}


class TestRequestTimeout:
    def test_a_stalled_server_times_out_as_transient(self):
        async def go():
            async with _StalledServer() as stalled:
                connection = await repro.aio.connect(
                    *stalled.address, request_timeout=0.1
                )
                with pytest.raises(TransientError, match="timed out"):
                    await connection.execute("SELECT v FROM t")
                await connection.close()

        run(go)

    def test_late_responses_are_discarded_not_misdelivered(self):
        # After a timeout the correlation entry is gone: a late response for
        # that id must not resolve any later request's future.
        async def go():
            server = ReproServer(build_database(), port=0, batch_window_us=0.0)
            async with server:
                connection = await repro.aio.connect(
                    *server.address, request_timeout=5.0
                )
                cursor = await connection.execute(SQL, (10.0, 20.0))
                first = cursor.rowcount
                # Forge the timeout aftermath: drop a pending id by hand.
                stale_id = next(connection._ids)
                again = await connection.execute(SQL, (10.0, 20.0))
                assert again.rowcount == first
                assert stale_id not in connection._pending
                await connection.close()

        run(go)


    def test_one_stalled_request_times_out_alone_near_its_deadline(self):
        timeout = 0.3

        async def go():
            async with _AnsweringServer(late_s=2 * timeout) as server:
                connection = await repro.aio.connect(
                    *server.address, request_timeout=timeout
                )
                loop = asyncio.get_running_loop()

                async def stalled():
                    begin = loop.time()
                    with pytest.raises(TransientError) as raised:
                        await connection.execute("stall")
                    return loop.time() - begin, str(raised.value)

                async def answered(k):
                    await asyncio.sleep(k * timeout / 20)  # some before, some after it stalls
                    return (await connection.execute(f"q{k}")).cache_level

                outcome, *levels = await asyncio.gather(
                    stalled(), *(answered(k) for k in range(30))
                )
                await asyncio.sleep(2 * timeout)  # the stalled request's late answer arrives
                after = (await connection.execute("after")).cache_level
                pending = dict(connection._pending)
                await connection.close()
                return outcome, levels, after, pending

        (elapsed, message), levels, after, pending = run(go)
        assert message == f"request 'execute' timed out after {timeout}s"
        assert timeout - 0.01 <= elapsed < timeout + 0.25
        assert levels == [f"q{k}" for k in range(30)]
        assert after == "after"  # the late answer went nowhere
        assert pending == {}

    def test_answered_requests_leave_one_timer_at_most(self):
        async def go():
            async with _AnsweringServer() as server:
                connection = await repro.aio.connect(*server.address, request_timeout=30.0)
                loop = asyncio.get_running_loop()
                timers: list[asyncio.TimerHandle] = []
                call_at = loop.call_at

                def spying_call_at(when, callback, *args, **kwargs):
                    handle = call_at(when, callback, *args, **kwargs)
                    timers.append(handle)
                    return handle

                loop.call_at = spying_call_at
                try:
                    for start in range(0, 1_000, 50):
                        await asyncio.gather(
                            *(connection.execute(f"q{k}") for k in range(start, start + 50))
                        )
                finally:
                    del loop.call_at
                armed = [t for t in timers if not t.cancelled() and t.when() > loop.time()]
                pending = len(connection._pending)
                await connection.close()
                return timers, armed, pending

        timers, armed, pending = run(go)
        assert pending == 0
        assert len(armed) <= 1
        assert len(timers) <= 1  # no timer per request

    def test_close_cancels_the_timer(self):
        async def go():
            async with _AnsweringServer() as server:
                connection = await repro.aio.connect(*server.address, request_timeout=30.0)
                await connection.execute("q")
                timer = connection._timer
                await connection.close()
                return timer, connection._timer

        timer, after = run(go)
        assert timer is not None and timer.cancelled()
        assert after is None


class TestReconnect:
    def test_a_dropped_socket_redials_and_rehandshakes(self):
        async def go():
            server = ReproServer(build_database(), port=0, batch_window_us=0.0)
            async with server:
                connection = await repro.aio.connect(
                    *server.address,
                    reconnect=True,
                    reconnect_backoff_s=0.01,
                )
                before = (await connection.execute(SQL, (10.0, 20.0))).rowcount
                connection._abort_transport()
                connection._closed = True  # the receive task notices async
                after = (await connection.execute(SQL, (10.0, 20.0))).rowcount
                assert connection.reconnects == 1
                assert after == before
                assert connection.server_info["protocol"] == PROTOCOL_VERSION
                await connection.close()

        run(go)

    def test_without_reconnect_a_dead_connection_raises_interface_error(self):
        async def go():
            server = ReproServer(build_database(), port=0, batch_window_us=0.0)
            async with server:
                connection = await repro.aio.connect(*server.address)
                connection._abort_transport()
                connection._closed = True
                with pytest.raises(InterfaceError):
                    await connection.execute(SQL, (10.0, 20.0))
                await connection.close()

        run(go)

    def test_injected_drop_is_retried_transparently_for_text_reads(self):
        async def go():
            injector = FaultInjector(seed=5)
            injector.schedule("client.send", at=2, action="drop", op="execute")
            server = ReproServer(build_database(), port=0, batch_window_us=0.0)
            async with server:
                connection = await repro.aio.connect(
                    *server.address,
                    reconnect=True,
                    reconnect_backoff_s=0.01,
                    retry_reads=True,
                    injector=injector,
                )
                # Fire 1 is this execute's send; fire 2 (the drop) is its
                # retry? No — at=2 targets the *second* execute frame.
                first = await connection.execute(SQL, (10.0, 20.0))
                second = await connection.execute(SQL, (10.0, 20.0))
                assert second.rowcount == first.rowcount
                assert connection.retries == 1
                assert connection.reconnects == 1
                assert injector.fired("client.send") == 1
                await connection.close()

        run(go)

    def test_statement_id_frames_are_never_retried(self):
        # The server-side statement registry dies with the connection; a
        # retried id would hit the wrong (or no) statement.  The transient
        # error must surface instead.
        async def go():
            injector = FaultInjector(seed=5)
            injector.schedule("client.send", at=1, action="drop", op="execute")
            server = ReproServer(build_database(), port=0, batch_window_us=0.0)
            async with server:
                connection = await repro.aio.connect(
                    *server.address,
                    reconnect=True,
                    reconnect_backoff_s=0.01,
                    retry_reads=True,
                    injector=injector,
                )
                statement = await connection.prepare(SQL)
                with pytest.raises(TransientError):
                    await statement.execute((10.0, 20.0))
                assert connection.retries == 0
                await connection.close()

        run(go)


class TestMidStreamDisconnect:
    def test_executemany_disconnect_is_a_clean_operational_error(self):
        async def go():
            async with _VanishingServer() as vanishing:
                connection = await repro.aio.connect(*vanishing.address)
                with pytest.raises(OperationalError):
                    await asyncio.wait_for(
                        connection.executemany(
                            SQL, [(float(low), low + 10.0) for low in range(0, 50, 5)]
                        ),
                        timeout=5.0,  # a hang here is the bug this test guards
                    )
                # The receive task wound down; nothing is orphaned.
                assert connection.closed
                assert connection._receive_task is not None
                await asyncio.wait_for(
                    asyncio.gather(
                        connection._receive_task, return_exceptions=True
                    ),
                    timeout=2.0,
                )
                assert not connection._pending
                await connection.close()

        run(go)

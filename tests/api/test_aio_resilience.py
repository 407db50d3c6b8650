"""Client-side resilience: request timeouts, reconnect, idempotent retry.

Satellite gates: a request against a stalled server times out cleanly
(``TransientError``), a dropped socket redials with backoff when
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

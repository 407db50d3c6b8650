"""End-to-end server tests: real sockets, real engine, the async client.

Each test spins up a :class:`ReproServer` on an ephemeral loopback port
inside its own ``asyncio.run`` (the suite does not depend on pytest-asyncio)
and talks to it through ``repro.aio`` — or through raw frames where the test
is about the protocol edge itself.
"""

from __future__ import annotations

import asyncio
import logging

import numpy as np
import pytest

import repro.aio
from repro.api.exceptions import (
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
)
from repro.engine import Database
from repro.server import PROTOCOL_VERSION, ReproServer, read_frame, serve, write_frame

SQL = "select objid from p where ra between ? and ?"


def run(main):
    return asyncio.run(main())


async def start_loaded_server(strategy: str | None = None, **knobs) -> ReproServer:
    """A started server preloaded (over the wire) with a 2 000-row table.

    With ``strategy``, ``p.ra`` is made adaptive: only then do its waves batch.
    """
    knobs.setdefault("batch_window_us", 2_000.0)
    server = await serve(port=0, **knobs)
    rng = np.random.default_rng(17)
    connection = await repro.aio.connect(*server.address)
    await connection.admin.create_table("p", {"objid": "int64", "ra": "float64"})
    await connection.admin.bulk_load(
        "p",
        {
            "objid": np.arange(2_000, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, size=2_000),
        },
    )
    if strategy is not None:
        await connection.admin.enable_adaptive("p", "ra", strategy=strategy)
    await connection.close()
    return server


def expected_objids(low: float, high: float) -> list[int]:
    rng = np.random.default_rng(17)
    objid = np.arange(2_000, dtype=np.int64)
    ra = rng.uniform(0.0, 360.0, size=2_000)
    return sorted(objid[(ra >= low) & (ra <= high)].tolist())


class TestHandshake:
    def test_hello_reports_version_and_knobs(self):
        async def go():
            async with ReproServer(port=0, batch_window_us=123.0) as server:
                connection = await repro.aio.connect(*server.address)
                info = dict(connection.server_info)
                await connection.close()
                return info

        info = run(go)
        assert info["server"] == "repro"
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["knobs"]["batch_window_us"] == 123.0
        assert info["knobs"]["overflow"] == "error"

    def test_protocol_mismatch_is_rejected(self):
        async def go():
            async with ReproServer(port=0) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                write_frame(writer, {"type": "hello", "id": 1, "protocol": 99})
                await writer.drain()
                reply = await read_frame(reader)
                trailer = await read_frame(reader)  # server hangs up after
                writer.close()
                return reply, trailer

        reply, trailer = run(go)
        assert reply["type"] == "error"
        assert reply["error"] == "ProgrammingError"
        assert "protocol 99" in reply["message"]
        assert trailer is None

    def test_first_frame_must_be_hello(self):
        async def go():
            async with ReproServer(port=0) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                write_frame(writer, {"type": "execute", "id": 1, "sql": "select 1"})
                await writer.drain()
                reply = await read_frame(reader)
                writer.close()
                return reply

        reply = run(go)
        assert reply["error"] == "ProgrammingError"
        assert "hello" in reply["message"]


class TestQueries:
    def test_literal_execute_and_fetch(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(
                    "select objid from p where ra between 10.0 and 20.0"
                )
                rows = cursor.fetchall()
                description = cursor.description
                await connection.close()
                return rows, description

        rows, description = run(go)
        assert sorted(row[0] for row in rows) == expected_objids(10.0, 20.0)
        assert description[0][0] == "objid"
        assert description[0][1] == "int64"

    def test_bound_execute_goes_through_admission(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(SQL, (10.0, 20.0))
                rows = cursor.fetchall()
                await connection.close()
                waves = server.admission.stats.waves
                return rows, waves

        rows, waves = run(go)
        assert sorted(row[0] for row in rows) == expected_objids(10.0, 20.0)
        assert waves >= 1

    def test_numpy_scalar_params_survive_the_wire(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(
                    SQL, (np.float64(10.0), np.float64(20.0))
                )
                rows = cursor.fetchall()
                await connection.close()
                return rows

        rows = run(go)
        assert sorted(row[0] for row in rows) == expected_objids(10.0, 20.0)

    def test_executemany_batches_disjoint_bindings_into_one_wave(self):
        bindings = [(10.0, 12.0), (100.0, 103.0), (350.0, 351.0)]

        async def go():
            server = await start_loaded_server(strategy="segmentation")
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.executemany(SQL, bindings)
                results = cursor.results
                stats = await connection.admin.cache_stats()
                await connection.close()
                return results, stats

        results, stats = run(go)
        assert len(results) == 3
        assert all(result.batched for result in results)
        for (low, high), result in zip(bindings, results):
            assert sorted(result.columns["objid"].tolist()) == expected_objids(low, high)
            assert result.columns["objid"].dtype == np.int64
        assert stats["batch"]["waves"] >= 1
        assert stats["batch"]["batched_queries"] >= 3

    def test_concurrent_clients_share_a_wave(self):
        async def go():
            server = await start_loaded_server(
                strategy="segmentation", batch_window_us=20_000.0
            )
            async with server:
                connections = [
                    await repro.aio.connect(*server.address) for _ in range(4)
                ]
                cursors = await asyncio.gather(
                    *(
                        connection.execute(SQL, (low, low + 5.0))
                        for connection, low in zip(connections, (10.0, 80.0, 150.0, 220.0))
                    )
                )
                batched = [cursor.result.batched for cursor in cursors]
                stats = server.admission.stats
                waves, max_wave = stats.waves, stats.max_wave_seen
                for connection in connections:
                    await connection.close()
                return batched, waves, max_wave

        batched, waves, max_wave = run(go)
        assert all(batched)
        assert waves == 1
        assert max_wave == 4

    def test_scalar_aggregate_over_the_wire(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(
                    "select count(*) from p where ra between 0.0 and 360.0"
                )
                row = cursor.fetchone()
                scalar = cursor.result.scalar()
                description = cursor.description
                await connection.close()
                return row, scalar, description

        row, scalar, description = run(go)
        assert row == (2_000.0,)
        assert scalar == 2_000.0
        assert description[0][0].startswith("count")


class TestPreparedStatements:
    def test_prepare_execute_roundtrip(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                meta = (statement.parameter_count, statement.paramstyle, statement.sql)
                result = await statement.execute((10.0, 20.0))
                many = await statement.executemany([(10.0, 12.0), (100.0, 103.0)])
                await connection.close()
                return meta, result, many

        meta, result, many = run(go)
        assert meta[0] == 2 and meta[1] == "qmark"
        assert sorted(result.columns["objid"].tolist()) == expected_objids(10.0, 20.0)
        assert [sorted(r.columns["objid"].tolist()) for r in many] == [
            expected_objids(10.0, 12.0),
            expected_objids(100.0, 103.0),
        ]

    def test_prepared_statements_survive_a_cache_generation_bump(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                before = await statement.execute((10.0, 20.0))
                # Invalidate every compiled plan server-side.
                await connection.admin.enable_adaptive(
                    "p", "ra", strategy="segmentation", model="apm"
                )
                after = await statement.execute((10.0, 20.0))
                await connection.close()
                return before, after

        before, after = run(go)
        assert sorted(before.columns["objid"].tolist()) == expected_objids(10.0, 20.0)
        assert sorted(after.columns["objid"].tolist()) == expected_objids(10.0, 20.0)

    def test_unknown_statement_id_raises(self):
        async def go():
            async with ReproServer(port=0) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                write_frame(
                    writer,
                    {"type": "hello", "id": 1, "protocol": PROTOCOL_VERSION},
                )
                await writer.drain()
                await read_frame(reader)
                write_frame(
                    writer,
                    {"type": "execute", "id": 2, "statement": 404, "params": [1, 2]},
                )
                await writer.drain()
                reply = await read_frame(reader)
                writer.close()
                return reply

        reply = run(go)
        assert reply["error"] == "ProgrammingError"
        assert "404" in reply["message"]


class TestErrors:
    def test_engine_errors_rebuild_as_pep249_exceptions(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                with pytest.raises(ProgrammingError):
                    await connection.execute("select objid from nope")
                # The connection survives an error frame.
                cursor = await connection.execute(SQL, (10.0, 20.0))
                count = cursor.rowcount
                await connection.close()
                return count

        assert run(go) == len(expected_objids(10.0, 20.0))

    def test_bad_binding_arity_raises_before_admission(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                with pytest.raises(ProgrammingError):
                    await statement.execute((10.0,))
                with pytest.raises(ProgrammingError):
                    await statement.executemany([(10.0, 20.0), (30.0,)])
                await connection.close()

        run(go)

    def test_unknown_frame_type_raises(self):
        async def go():
            async with ReproServer(port=0) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                write_frame(
                    writer, {"type": "hello", "id": 1, "protocol": PROTOCOL_VERSION}
                )
                await writer.drain()
                await read_frame(reader)
                write_frame(writer, {"type": "teleport", "id": 2})
                await writer.drain()
                reply = await read_frame(reader)
                writer.close()
                return reply

        reply = run(go)
        assert reply["error"] == "ProgrammingError"
        assert "teleport" in reply["message"]

    def test_an_unencodable_reply_fails_only_its_own_request(self, monkeypatch):
        import repro.server.server as server_module

        real_payload = server_module.result_payload
        poisoned = []

        def poison_once(result):
            payload = real_payload(result)
            if not poisoned:
                poisoned.append(True)
                payload["poison"] = object()
            return payload

        monkeypatch.setattr(server_module, "result_payload", poison_once)

        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address, request_timeout=10)
                with pytest.raises(InternalError, match="cannot be encoded"):
                    await connection.execute(SQL, (10.0, 20.0))
                # The connection's pump survived: a query and an admin op answer.
                cursor = await connection.execute(SQL, (10.0, 20.0))
                count = cursor.rowcount
                names = await connection.admin.table_names()
                await connection.close()
                return count, names

        assert run(go) == (len(expected_objids(10.0, 20.0)), ["p"])

    def test_rollback_is_not_supported(self):
        async def go():
            async with ReproServer(port=0) as server:
                connection = await repro.aio.connect(*server.address)
                await connection.commit()  # a no-op, as in the sync facade
                with pytest.raises(NotSupportedError):
                    await connection.rollback()
                await connection.close()

        run(go)


class TestBackpressure:
    def test_overflow_error_reaches_the_client_as_operational_error(self):
        async def go():
            server = await start_loaded_server(
                batch_window_us=300_000.0, max_inflight=2,
                max_inflight_per_connection=8, overflow="error",
            )
            async with server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                outcomes = await asyncio.gather(
                    *(statement.execute((10.0 + i, 20.0 + i)) for i in range(3)),
                    return_exceptions=True,
                )
                rejected = server.admission.stats.rejected_overflow
                await connection.close()
                return outcomes, rejected

        outcomes, rejected = run(go)
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        assert len(errors) == 1 and isinstance(errors[0], OperationalError)
        assert "admission queue full" in str(errors[0])
        assert rejected == 1
        assert len(outcomes) - len(errors) == 2  # the admitted two still answer


class TestAdmin:
    def test_admin_surface_over_the_wire(self):
        async def go():
            async with ReproServer(port=0, batch_window_us=100.0) as server:
                connection = await repro.aio.connect(*server.address)
                admin = connection.admin
                await admin.create_table("t", {"v": "float64"})
                names = await admin.table_names()
                await admin.bulk_load("t", {"v": [1.0, 2.0, 3.0]})
                await admin.insert("t", {"v": [4.0, 5.0]})
                await admin.delete("t", [0])
                cursor = await connection.execute(
                    "select v from t where v between 0.0 and 10.0"
                )
                rows = sorted(row[0] for row in cursor.fetchall())
                plan = await admin.explain("select v from t where v between 1.0 and 2.0")
                prepared_plan = await admin.explain("select v from t where v between ? and ?")
                await admin.drop_table("t")
                with pytest.raises(ProgrammingError):
                    await connection.execute("select v from t where v between 0.0 and 1.0")
                await connection.close()
                return names, rows, plan, prepared_plan

        names, rows, plan, prepared_plan = run(go)
        assert names == ["t"]
        assert rows == [2.0, 3.0, 4.0, 5.0]
        assert isinstance(plan, str) and plan
        # The text a client prepares explains too (it raised a syntax error),
        # Figure 1 first and the lowering under its comment line.
        figure_1, marker, short = prepared_plan.partition(
            "\n# lowering — what the executor runs\n"
        )
        assert marker and "algebra.kunion" in figure_1 and "__p0" in figure_1
        assert "algebra.projection" in short and "algebra.kunion" not in short

    @pytest.mark.parametrize("dtype", ["int32", "float32"])
    def test_bulk_load_insert_delete_over_the_wire_match_in_process(self, dtype):
        rng = np.random.default_rng(23)
        loaded = rng.integers(0, 1_000, 600).astype(dtype)
        inserted = rng.integers(0, 1_000, 80).astype(dtype)
        deleted = rng.choice(680, 90, replace=False)
        ranges = [(0, 1_000), (100, 300), (750, 760), (2_000, 3_000)]
        sql = "select v from t where v between ? and ?"

        local = Database()
        local.create_table("t", {"v": dtype})
        local.bulk_load("t", {"v": loaded})
        local.insert("t", {"v": inserted})
        local.delete("t", deleted)
        expected = []
        for low, high in ranges:
            column = local.execute_prepared(local.prepare_statement(sql), (low, high)).column("v")
            expected.append((column.dtype, sorted(column.tolist())))

        async def go():
            async with ReproServer(port=0, batch_window_us=100.0) as server:
                connection = await repro.aio.connect(*server.address)
                admin = connection.admin
                await admin.create_table("t", {"v": dtype})
                await admin.bulk_load("t", {"v": loaded})
                await admin.insert("t", {"v": inserted})
                await admin.delete("t", deleted)
                statement = await connection.prepare(sql)
                answers = []
                for low, high in ranges:
                    column = (await statement.execute((low, high))).columns["v"]
                    answers.append((column.dtype, sorted(column.tolist())))
                await connection.close()
                return answers

        answers = run(go)
        assert answers == expected
        assert all(column_dtype == np.dtype(dtype) for column_dtype, _ in answers)
        assert any(rows for _, rows in answers)

    def test_an_array_the_wire_cannot_carry_fails_before_sending(self):
        async def go():
            async with ReproServer(port=0) as server:
                connection = await repro.aio.connect(*server.address)
                await connection.admin.create_table("t", {"v": "float64"})
                with pytest.raises(ProgrammingError, match="cannot cross the wire"):
                    await connection.admin.bulk_load("t", {"v": ["a", "b"]})
                names = await connection.admin.table_names()
                await connection.close()
                return names

        assert run(go) == ["t"]

    def test_cache_stats_sections_cross_the_wire(self):
        async def go():
            server = await start_loaded_server(strategy="segmentation")
            async with server:
                connection = await repro.aio.connect(*server.address)
                await connection.executemany(
                    SQL, [(10.0, 12.0), (100.0, 103.0), (350.0, 351.0)]
                )
                stats = await connection.admin.cache_stats()
                await connection.close()
                return stats

        stats = run(go)
        # The merged fleet shape; a fleet of one merges to its only replica's.
        assert set(stats) == {"batch", "total", "replicas"}
        assert stats["replicas"] == [{"batch": stats["batch"], "total": stats["total"]}]
        assert stats["total"]["size"] == 1 and stats["total"]["misses"] == 1
        assert stats["batch"]["waves"] >= 1
        assert stats["batch"]["wave_size"]["max"] >= 3
        assert sum(stats["batch"]["wave_size_histogram"].values()) == stats["batch"]["waves"]

    def test_admission_stats_include_knobs_and_connections(self):
        async def go():
            server = await start_loaded_server(batch_window_us=400.0)
            async with server:
                connection = await repro.aio.connect(*server.address)
                await connection.execute(SQL, (10.0, 20.0))
                stats = await connection.admin.admission_stats()
                await connection.close()
                return stats

        stats = run(go)
        assert stats["admitted"] >= 1
        assert stats["waves"] >= 1
        assert stats["mean_wave"] >= 1.0
        assert stats["connections"] >= 1
        assert stats["knobs"]["batch_window_us"] == 400.0

    def test_unknown_admin_op_raises(self):
        async def go():
            async with ReproServer(port=0) as server:
                connection = await repro.aio.connect(*server.address)
                with pytest.raises(ProgrammingError):
                    await connection.admin._call("format_disk")
                await connection.close()

        run(go)


class TestLifecycle:
    def test_closed_connection_refuses_further_work(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(SQL, (10.0, 20.0))
                await connection.close()
                assert connection.closed
                assert cursor.closed  # cursors close with their connection
                with pytest.raises(InterfaceError):
                    connection.cursor()
                with pytest.raises(InterfaceError):
                    await connection.execute(SQL, (10.0, 20.0))

        run(go)

    def test_cursor_close_is_client_side_only(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(SQL, (10.0, 20.0))
                cursor.close()
                with pytest.raises(InterfaceError):
                    cursor.fetchall()
                other = await connection.execute(SQL, (10.0, 20.0))
                count = other.rowcount
                await connection.close()
                return count

        assert run(go) == len(expected_objids(10.0, 20.0))

    def test_server_stop_with_a_live_connection_does_not_hang(self, caplog):
        async def go():
            server = await start_loaded_server()
            connection = await repro.aio.connect(*server.address)
            await connection.execute(SQL, (10.0, 20.0))
            await server.stop()  # drops the client; must not deadlock
            with pytest.raises((OperationalError, InterfaceError, ConnectionError)):
                await connection.execute(SQL, (10.0, 20.0))
            await connection.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            run(go)
        assert not caplog.records  # the cancelled handler ended without an error

    def test_abrupt_client_disconnect_leaves_the_server_serving(self):
        async def go():
            server = await start_loaded_server()
            async with server:
                reader, writer = await asyncio.open_connection(*server.address)
                write_frame(
                    writer, {"type": "hello", "id": 1, "protocol": PROTOCOL_VERSION}
                )
                await writer.drain()
                await read_frame(reader)
                writer.close()  # vanish without a close frame
                connection = await repro.aio.connect(*server.address)
                cursor = await connection.execute(SQL, (10.0, 20.0))
                count = cursor.rowcount
                await connection.close()
                return count

        assert run(go) == len(expected_objids(10.0, 20.0))

"""Standalone server smoke: a server boots, answers one query, is tuned, stops.

Starts a :class:`~repro.server.ReproServer` on an ephemeral loopback port,
creates and loads a three-row table through the wire protocol's admin
frames, checks one bound range select and the handshake's protocol version
(a raw protocol-2 HELLO is refused and its connection closed), makes the column adaptive and drives the knob surface: it reads the knob
table, sets one knob per layer (storage-model, cluster, server) in one
batch, reads the values back, and checks that a batch breaking
``apm_m_min < apm_m_max`` changes nothing.  On a scratch table it then
drives the rest of the admin surface over the wire — ``table_names``,
``insert``, ``delete``, ``explain``, a replication column with a storage
budget, ``disable_adaptive`` and ``drop_table`` — and lowers the
``replication_storage_budget`` knob below the bytes the column holds: the
next query must bring the column within the new budget.  Then it leaves the
``async with`` block, which stops the server.  On the way it drives every
read door of the wire: a literal ``execute`` (admitted like a bound read,
so ``admission_stats()["admitted"]`` rises by one) and both
``executemany`` doors, the cursor's and the prepared statement's, each
answer equal to a lone bound execute.  CI runs it under a hard
timeout, so a wedged shutdown fails the job::

    PYTHONPATH=src timeout 60 python examples/server_smoke.py
"""

from __future__ import annotations

import asyncio
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.aio  # noqa: E402
from repro.api.exceptions import ProgrammingError  # noqa: E402
from repro.server import ReproServer, read_frame, write_frame  # noqa: E402

#: One knob per layer, each moved off its default.
ONE_PER_LAYER = {
    "apm_m_min": 2048.0,  # storage-model
    "hot_query_threshold": 0.75,  # cluster
    "batch_window_us": 50.0,  # server
}


async def main() -> None:
    async with ReproServer(port=0, batch_window_us=100.0) as server:
        connection = await repro.aio.connect(*server.address)
        assert connection.server_info["protocol"] == 3
        await refuses_protocol_2(server.address)
        admin = connection.admin
        await admin.create_table("t", {"v": "float64"})
        await admin.bulk_load("t", {"v": [1.0, 2.0, 3.0]})
        cursor = await connection.execute(
            "select v from t where v between ? and ?", (1.5, 3.5))
        assert cursor.rowcount == 2, cursor.rowcount

        await admin.enable_adaptive("t", "v", strategy="segmentation", model="apm")
        rows = {row["name"]: row for row in await admin.knobs()}
        layers = {rows[name]["layer"] for name in ONE_PER_LAYER}
        assert layers == {"storage-model", "cluster", "server"}, layers
        applied = await admin.set_knobs(ONE_PER_LAYER)
        assert {name: applied[name] for name in ONE_PER_LAYER} == ONE_PER_LAYER
        values = {row["name"]: row["value"] for row in await admin.knobs()}
        assert {name: values[name] for name in ONE_PER_LAYER} == ONE_PER_LAYER

        # Every value is in bounds, but apm_m_min would pass apm_m_max: the
        # whole batch is refused and no knob moves.
        crossing = {"apm_m_min": 16_384.0, "hot_query_threshold": 0.5,
                    "batch_window_us": 10.0}
        try:
            await admin.set_knobs(crossing)
        except ProgrammingError as exc:
            assert "apm_m_max" in str(exc), exc
        else:
            raise AssertionError("a batch crossing apm_m_max was applied")
        unchanged = {row["name"]: row["value"] for row in await admin.knobs()}
        assert unchanged == values, unchanged

        cursor = await connection.execute(
            "select v from t where v between ? and ?", (1.5, 3.5))
        assert cursor.rowcount == 2, cursor.rowcount
        held, budget = await scratch_table(connection)
        await connection.close()
    print(f"server smoke ok (replication storage {held:.0f} B met a lowered budget "
          f"of {budget:.0f} B)")


async def refuses_protocol_2(address) -> None:
    """A protocol-2 client's HELLO gets the version-mismatch error, then EOF."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        write_frame(writer, {"type": "hello", "id": 1, "protocol": 2, "client": "old"})
        await writer.drain()
        reply = await asyncio.wait_for(read_frame(reader), 10)
        assert reply["type"] == "error" and reply["error"] == "ProgrammingError", reply
        assert reply["message"] == "protocol 2 not supported (server speaks 3)", reply
        assert await asyncio.wait_for(read_frame(reader), 10) is None
    finally:
        writer.close()


async def scratch_table(connection) -> tuple[float, float]:
    """The admin surface on a scratch table, and a budget lowered below what it holds.

    Returns the bytes the replication column held and the lowered budget.
    """
    admin = connection.admin
    rows = 20_000
    values = np.random.default_rng(3).uniform(0.0, 1_000.0, rows)
    await admin.create_table("scratch", {"objid": "int64", "w": "float64"})
    await admin.bulk_load("scratch", {"objid": np.arange(rows, dtype=np.int64), "w": values})
    assert sorted(await admin.table_names()) == ["scratch", "t"]
    await admin.insert("scratch", {"objid": np.array([rows], dtype=np.int64),
                                   "w": np.array([500.5])})
    await admin.delete("scratch", np.array([0], dtype=np.int64))
    live = np.append(values, 500.5)
    live[0] = np.nan  # deleted: matches no range
    sql = "select objid from scratch where w between ? and ?"

    async def check(low: float, high: float) -> None:
        cursor = await connection.execute(sql, (low, high))
        got = sorted(cursor.result.columns["objid"].tolist())
        assert got == np.flatnonzero((live >= low) & (live <= high)).tolist(), (low, high)

    await check(500.0, 501.0)
    await check(0.0, 1_000.0)
    await read_doors(connection, sql)
    plan = await admin.explain(sql)
    assert "# lowering — what the executor runs" in plan, plan

    await admin.enable_adaptive("scratch", "w", strategy="replication", model="apm",
                                storage_budget=3.0 * values.nbytes)
    for low in np.random.default_rng(5).uniform(0.0, 970.0, 40).tolist():
        await check(low, low + 30.0)  # overlapping ranges nest replicas
    held = await storage_bytes(connection)
    assert held > values.nbytes, held
    budget = (held + values.nbytes) / 2.0
    await admin.set_knobs({"replication_storage_budget": budget})
    await check(100.0, 130.0)  # the next query meets the lowered budget first
    assert await storage_bytes(connection) <= budget

    await admin.disable_adaptive("scratch", "w")
    await check(100.0, 130.0)
    await admin.drop_table("scratch")
    assert await admin.table_names() == ["t"]
    return held, budget


async def read_doors(connection, sql: str) -> None:
    """A literal execute and both executemany doors answer like lone bound executes."""
    async def lone(low: float, high: float) -> list[int]:
        cursor = await connection.execute(sql, (low, high))
        return sorted(cursor.result.columns["objid"].tolist())

    admission_stats = connection.admin.admission_stats
    admitted = (await admission_stats())["admitted"]
    cursor = await connection.execute(
        "select objid from scratch where w between 500.0 and 501.0")
    assert (await admission_stats())["admitted"] == admitted + 1
    assert sorted(cursor.result.columns["objid"].tolist()) == await lone(500.0, 501.0)

    bounds = [(100.0, 110.0), (400.0, 420.0), (900.0, 905.0)]
    expected = [await lone(low, high) for low, high in bounds]
    cursor = await connection.cursor().executemany(sql, bounds)
    statement = await connection.prepare(sql)
    for results in (cursor.results, await statement.executemany(bounds)):
        assert [sorted(result.columns["objid"].tolist()) for result in results] == expected


async def storage_bytes(connection) -> float:
    """What the scratch column holds on the server's one replica."""
    [replica] = (await connection.admin.router_stats())["replicas"]
    return replica["columns"]["scratch.w"]["storage_bytes"]


if __name__ == "__main__":
    asyncio.run(main())

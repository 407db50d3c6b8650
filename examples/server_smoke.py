"""Standalone server smoke: a server boots, answers one query, is tuned, stops.

Starts a :class:`~repro.server.ReproServer` on an ephemeral loopback port,
creates and loads a three-row table through the wire protocol's admin
frames, checks one bound range select and the handshake's protocol version,
makes the column adaptive and drives the knob surface: it reads the knob
table, sets one knob per layer (storage-model, cluster, server) in one
batch, reads the values back, and checks that a batch breaking
``apm_m_min < apm_m_max`` changes nothing.  Then it leaves the
``async with`` block, which stops the server.  CI runs it under a hard
timeout, so a wedged shutdown fails the job::

    PYTHONPATH=src timeout 60 python examples/server_smoke.py
"""

from __future__ import annotations

import asyncio
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.aio  # noqa: E402
from repro.api.exceptions import ProgrammingError  # noqa: E402
from repro.server import ReproServer  # noqa: E402

#: One knob per layer, each moved off its default.
ONE_PER_LAYER = {
    "apm_m_min": 2048.0,  # storage-model
    "hot_query_threshold": 0.75,  # cluster
    "batch_window_us": 50.0,  # server
}


async def main() -> None:
    async with ReproServer(port=0, batch_window_us=100.0) as server:
        connection = await repro.aio.connect(*server.address)
        assert connection.server_info["protocol"] == 2
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
        await connection.close()
    print("server smoke ok")


if __name__ == "__main__":
    asyncio.run(main())

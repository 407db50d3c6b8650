"""Standalone server smoke: a server boots, answers one query, stops.

Starts a :class:`~repro.server.ReproServer` on an ephemeral loopback port,
creates and loads a three-row table through the wire protocol's admin
frames, checks one bound range select and the handshake's protocol version,
then leaves the ``async with`` block, which stops the server.  CI runs it
under a hard timeout, so a wedged shutdown fails the job::

    PYTHONPATH=src timeout 60 python examples/server_smoke.py
"""

from __future__ import annotations

import asyncio
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.aio  # noqa: E402
from repro.server import ReproServer  # noqa: E402


async def main() -> None:
    async with ReproServer(port=0, batch_window_us=100.0) as server:
        connection = await repro.aio.connect(*server.address)
        assert connection.server_info["protocol"] == 1
        await connection.admin.create_table("t", {"v": "float64"})
        await connection.admin.bulk_load("t", {"v": [1.0, 2.0, 3.0]})
        cursor = await connection.execute(
            "select v from t where v between ? and ?", (1.5, 3.5))
        assert cursor.rowcount == 2, cursor.rowcount
        await connection.close()
    print("server smoke ok")


if __name__ == "__main__":
    asyncio.run(main())

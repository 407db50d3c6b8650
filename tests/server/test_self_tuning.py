"""Knobs over the wire: the knobs / set_knobs admin ops.

Same harness as the rest of the server suite: each test runs a real
:class:`ReproServer` on an ephemeral port inside its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.aio
from repro.api.exceptions import ProgrammingError
from repro.engine.database import Database
from repro.server import ReproServer
from repro.util.units import KB

def run(main):
    return asyncio.run(main())


def adaptive_database(n_rows: int = 4_000) -> Database:
    rng = np.random.default_rng(17)
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load(
        "p",
        {
            "objid": np.arange(n_rows, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, size=n_rows),
        },
    )
    database.enable_adaptive("p", "ra", model="apm", m_min=1 * KB, m_max=4 * KB)
    return database


class TestKnobOps:
    def test_knob_table_over_the_wire(self):
        async def go():
            async with ReproServer(adaptive_database(), port=0) as server:
                connection = await repro.aio.connect(*server.address)
                rows = await connection.admin.knobs()
                by_name = {row["name"]: row for row in rows}
                # Engine-layer and server-layer knobs in one table.
                assert by_name["apm_m_min"]["layer"] == "storage-model"
                assert by_name["apm_m_min"]["value"] == 1 * KB
                assert by_name["batch_window_us"]["layer"] == "server"
                assert {"default", "low", "high"} <= set(by_name["max_wave"])
                await connection.close()

        run(go)

    def test_set_knobs_applies_live(self):
        async def go():
            database = adaptive_database()
            async with ReproServer(database, port=0) as server:
                connection = await repro.aio.connect(*server.address)
                applied = await connection.admin.set_knobs(
                    {"apm_m_min": 2 * KB, "batch_window_us": 0.0}
                )
                assert applied["apm_m_min"] == 2 * KB
                model = database.bpm.handles()[0].adaptive.model
                assert model.m_min == 2 * KB
                assert server.admission.batch_window_us == 0.0
                await connection.close()

        run(go)

    def test_invalid_set_knobs_rejected_without_side_effects(self):
        async def go():
            database = adaptive_database()
            async with ReproServer(database, port=0) as server:
                connection = await repro.aio.connect(*server.address)
                with pytest.raises(ProgrammingError, match="apm_m_max"):
                    # Violates the m_min < m_max constraint.
                    await connection.admin.set_knobs({"apm_m_min": 8 * KB})
                with pytest.raises(ProgrammingError):
                    await connection.admin.set_knobs({"no_such_knob": 1.0})
                model = database.bpm.handles()[0].adaptive.model
                assert model.m_min == 1 * KB  # untouched
                await connection.close()

        run(go)

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_engine_knobs_apply_on_each_replica_worker(self, monkeypatch, replicas):
        # An engine-layer knob mutates a replica's models, so it is applied
        # on the worker that owns them — for a fleet of one as for two.
        from repro.tuning import knobs as knob_module

        applied: list[tuple[str, str]] = []
        write = knob_module._write

        def recording_write(knob, carriers, value):
            applied.append((knob.name, threading.current_thread().name))
            write(knob, carriers, value)

        async def go():
            server = ReproServer(adaptive_database(), port=0, replicas=replicas)
            monkeypatch.setattr(knob_module, "_write", recording_write)
            async with server:
                connection = await repro.aio.connect(*server.address)
                await connection.admin.set_knobs({"apm_m_min": 2 * KB})
                await connection.close()
            return server

        server = run(go)
        assert sorted(applied) == [
            ("apm_m_min", f"repro-replica-{index}") for index in range(replicas)
        ]
        assert [
            replica.database.bpm.handles()[0].adaptive.model.m_min
            for replica in server.router.replicas
        ] == [2 * KB] * replicas

    def test_tuning_stats_op_is_gone(self):
        async def go():
            async with ReproServer(adaptive_database(), port=0) as server:
                connection = await repro.aio.connect(*server.address)
                with pytest.raises(ProgrammingError, match="unknown admin op"):
                    await connection.admin._call("tuning_stats")
                await connection.close()

        run(go)


class TestCommandLine:
    def test_a_rejected_setting_is_a_usage_error(self):
        src = str(Path(repro.aio.__file__).resolve().parents[1])
        cli = subprocess.run(
            [sys.executable, "-m", "repro.server", "--port", "0", "--max-wave", "0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert cli.returncode == 2  # argparse's usage error
        assert "max_inflight and max_wave must be >= 1" in cli.stderr

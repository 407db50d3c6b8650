"""Knobs over the wire: the knobs / set_knobs admin ops.

Same harness as the rest of the server suite: each test runs a real
:class:`ReproServer` on an ephemeral port inside its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
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

    def test_tuning_stats_op_is_gone(self):
        async def go():
            async with ReproServer(adaptive_database(), port=0) as server:
                connection = await repro.aio.connect(*server.address)
                with pytest.raises(ProgrammingError, match="unknown admin op"):
                    await connection.admin._call("tuning_stats")
                await connection.close()

        run(go)


class TestReadWorkersRule:
    """``read_workers`` has one rule, the knob's bounds, at every door that sets it."""

    def test_constructor_cli_and_set_knobs_all_reject_zero(self):
        database = adaptive_database()
        with pytest.raises(ValueError) as knob:
            database.set_knobs({"read_workers": 0})
        with pytest.raises(ValueError) as constructor:
            ReproServer(database, read_workers=0)
        assert str(constructor.value) == str(knob.value) == "knob read_workers: 0 outside [1, 8]"
        assert database.read_workers == 1
        src = str(Path(repro.aio.__file__).resolve().parents[1])
        cli = subprocess.run(
            [sys.executable, "-m", "repro.server", "--port", "0", "--read-workers", "0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert cli.returncode == 2  # argparse's usage error
        assert str(knob.value) in cli.stderr

    @pytest.mark.parametrize("value", [-1, 9, "two"])
    def test_constructor_rejects_what_the_knob_rejects(self, value):
        database = adaptive_database()
        with pytest.raises(ValueError) as knob:
            database.set_knobs({"read_workers": value})
        with pytest.raises(ValueError) as constructor:
            ReproServer(database, read_workers=value)
        assert str(constructor.value) == str(knob.value)
        assert database.read_workers == 1

    @pytest.mark.parametrize("value", [1, 8])
    def test_constructor_accepts_the_knob_bounds(self, value):
        async def go():
            database = adaptive_database()
            async with ReproServer(database, port=0, read_workers=value):
                assert database.read_workers == value == database.knobs()["read_workers"]

        run(go)

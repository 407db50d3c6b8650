"""Fixtures for the DB-API client tests."""

from __future__ import annotations

import numpy as np
import pytest

import repro


@pytest.fixture
def ra_values() -> np.ndarray:
    rng = np.random.default_rng(71)
    return rng.uniform(0.0, 360.0, size=5_000)


@pytest.fixture
def connection(ra_values: np.ndarray) -> repro.Connection:
    """An open connection over a loaded two-column table ``p``."""
    conn = repro.connect()
    conn.admin.create_table("p", {"objid": "int64", "ra": "float64"})
    conn.admin.bulk_load(
        "p",
        {"objid": np.arange(ra_values.size, dtype=np.int64), "ra": ra_values},
    )
    yield conn
    conn.close()


@pytest.fixture
def managed(connection: repro.Connection) -> repro.Connection:
    """``connection`` with ``p.ra`` under adaptive segmentation: its waves batch."""
    connection.admin.enable_adaptive("p", "ra", strategy="segmentation", model="apm")
    return connection


def brute_oids(ra_values: np.ndarray, low: float, high: float) -> list[int]:
    """Reference result of ``SELECT objid ... WHERE ra BETWEEN low AND high``."""
    return sorted(np.flatnonzero((ra_values >= low) & (ra_values <= high)).tolist())

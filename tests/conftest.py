"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.util.units import KB

#: Domain of the small test column (mirrors the paper's 1 M-integer domain,
#: scaled down so tests stay fast).
TEST_DOMAIN = (0.0, 100_000.0)

#: How long a thread a test started may take to finish after the test ends.
THREAD_GRACE_S = 1.0


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Every thread started during a test must be gone within 1 s of its end.

    An engine, server or router that a test builds owns its threads, and
    closing it must join them; a thread still alive here is a leak.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE_S
    while True:
        leaked = sorted(t.name for t in set(threading.enumerate()) - before if t.is_alive())
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert not leaked, f"threads outlived the test: {leaked}"


@pytest.fixture(scope="session")
def small_values() -> np.ndarray:
    """A 20 K-value int32 column over a 100 K domain (session-wide, read-only)."""
    rng = np.random.default_rng(1234)
    return rng.integers(0, 100_000, size=20_000).astype(np.int32)


@pytest.fixture
def values(small_values: np.ndarray) -> np.ndarray:
    """A fresh copy of the small column for tests that reorganize data."""
    return small_values.copy()


@pytest.fixture
def apm_model() -> AdaptivePageModel:
    """An APM model scaled to the small test column (3 KB / 12 KB bounds)."""
    return AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)


@pytest.fixture
def gd_model() -> GaussianDice:
    """A seeded Gaussian Dice model (deterministic across test runs)."""
    return GaussianDice(seed=99)


def brute_force_count(values: np.ndarray, low: float, high: float) -> int:
    """Reference implementation of a half-open range selection."""
    return int(((values >= low) & (values < high)).sum())


def literal_wave(database, statements: list[str]) -> list:
    """Literal statements as one admission wave, in input order."""
    return database.execute_wave(
        [(database.prepare_statement(sql), ()) for sql in statements]
    )

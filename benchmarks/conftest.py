"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one figure or table of the paper.  Because the
interesting output is the series/table itself (not only the wall-clock time
pytest-benchmark records), each benchmark also writes its formatted output to
``results/<name>.txt`` at the repository root via the ``save_result`` fixture.

The simulator figures are deterministic under their seed, so their scripts pin
the series they plot through the ``check_grid_pins`` fixture against
``GRID_PINS``: a change that moves a pinned series fails here unless it
updates the pin in the same diff.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The pins hold at the paper's default scale only (``REPRO_SIM_QUERIES`` unset).
PINNED_SIM_QUERIES = 10_000

#: The per-query series one pin covers, hashed as float64 in this order.
PINNED_SERIES = ("reads_bytes", "writes_bytes", "storage_bytes", "segment_count")

#: SHA-256 of each run's pinned series, per ``simulation_grid`` key and label.
GRID_PINS = {
    ("uniform", 0.1): {
        "GD Segm": "46919cfa0e03a9b19980d9471549f52670c9ed0fba7b987ea6045c375ad853b0",
        "GD Repl": "2b57e99fb354c9e994a2e35d59a7244d62956375578c46ab491e9e92d9432c04",
        "APM Segm": "d2f0b6f41668b4eb6efe8ad53671cbff5f98c4487f76b8184c2612ccb72ec3f0",
        "APM Repl": "1a428250d21e7da5de941c66324157ed89a15ab8da6c6515e5998402c0324da7",
    },
    ("uniform", 0.01): {
        "GD Segm": "aac65d67ce52a37c65828f96e036068f4f4b2d30cd3b957a5856ea3ecdcef1aa",
        "GD Repl": "76151f7896ef658e9f9e2aa015033102691267118a61db8b25d3dce894514ee7",
        "APM Segm": "2521fcb9089caef0718ca8246402c0bd285f9d02ae99653d09573c4fee45841c",
        "APM Repl": "0ac5187e9b1ea63119bed48e5e5f3b3319f5c060f179ea4eab753bd3316e5cf0",
    },
    ("zipf", 0.1): {
        "GD Segm": "24a5db2f8535b9bb332926588ffedba5a0f0375a649460c226d55a5f75675a72",
        "GD Repl": "a578e4f2eac8c5bd5b8f554e7165a238f619928df3e17736c27a1241268101d2",
        "APM Segm": "ba9bfd1547f4a431d478b9dc456d52d14f6a5c715bf328c058f37b3f2aa6b2fe",
        "APM Repl": "d77b7160ea2ae55e8df9cc2b72b86ccda68d95d421f7e9fa5642dd4373f30c12",
    },
    ("zipf", 0.01): {
        "GD Segm": "550758b2a54b888b76d17ef9453280f2793d25e5a8a7f7357298bbbb83c8003e",
        "GD Repl": "210c3694a2902a3d38e3348d7c584ab1fc9b4ffd787ed5622dc0e4876d8b8ff8",
        "APM Segm": "a36feb98228bf8e5baccd640f4410f055275e2e2e7ba18e84db2746c7e76bb60",
        "APM Repl": "d07dc8214fe0dec3dfe26785727d6d584498a625331b69c65a16bb3606f1168b",
    },
}


def series_sha256(result) -> str:
    """SHA-256 over the pinned per-query series of one simulated run."""
    digest = hashlib.sha256()
    for name in PINNED_SERIES:
        digest.update(np.asarray(result.log.series(name), dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture
def check_grid_pins():
    """Assert the ``GRID_PINS`` of the listed ``(distribution, selectivity)`` grids.

    Every label of every listed grid must match; a scaled-down run
    (``REPRO_SIM_QUERIES`` set to anything else) skips the comparison.
    """
    # Imported here: the e2e tests below this directory run without src/ on the path.
    from repro.bench.harness import sim_query_count, simulation_grid

    def _check(*keys: tuple[str, float]) -> None:
        if sim_query_count() != PINNED_SIM_QUERIES:
            return
        for distribution, selectivity in keys:
            grid = simulation_grid(distribution, selectivity)
            actual = {label: series_sha256(result) for label, result in grid.items()}
            expected = GRID_PINS[distribution, selectivity]
            assert actual == expected, f"{distribution} {selectivity}: pinned series moved"

    return _check


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """The directory where formatted experiment outputs are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir: Path):
    """Persist (and echo) the formatted output of one experiment."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save

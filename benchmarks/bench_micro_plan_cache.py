"""Micro-benchmark: execute latency with the plan cache cold vs. warm.

Measures two things on the same statement:

* **plan acquisition** — parse + compile + optimize on a cold cache vs. a
  literal-masked LRU hit on a warm cache (the work the cache exists to skip), and
* **end-to-end execute** — the full ``Database.execute`` with the cache
  cleared before every call (cold) vs. primed (warm).

The acceptance bar for the cached path is a >= 2x speedup of warm over cold
plan acquisition; on a small table the end-to-end speedup is visible too
because planning dominates the scan.

Runs under pytest (with the other ``bench_*`` files) or standalone::

    PYTHONPATH=src python benchmarks/bench_micro_plan_cache.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.database import Database

N_ROWS = 2_000
N_ITERATIONS = 300
SQL = "SELECT objid FROM p WHERE ra BETWEEN 120.0 AND 140.0"


def _build_database() -> Database:
    rng = np.random.default_rng(23)
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load(
        "p",
        {
            "objid": np.arange(N_ROWS, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, size=N_ROWS),
        },
    )
    return database


def _best_of(repeats: int, fn) -> float:
    """Best (minimum) average seconds per call over ``repeats`` batches."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(N_ITERATIONS):
            fn()
        best = min(best, (time.perf_counter() - started) / N_ITERATIONS)
    return best


def measure_plan_cache(database: Database | None = None) -> dict[str, float]:
    """Cold/warm latencies (seconds) for planning and for full execution."""
    database = database if database is not None else _build_database()

    def plan_cold():
        database.plan_cache.clear()
        database._resolve(SQL)

    def plan_warm():
        database._resolve(SQL)

    def execute_cold():
        database.plan_cache.clear()
        database.execute(SQL)

    def execute_warm():
        database.execute(SQL)

    database.execute(SQL)  # prime interpreter/module state
    plan_cold_s = _best_of(3, plan_cold)
    database._resolve(SQL)  # prime the cache
    plan_warm_s = _best_of(3, plan_warm)
    execute_cold_s = _best_of(3, execute_cold)
    database._resolve(SQL)
    execute_warm_s = _best_of(3, execute_warm)
    return {
        "plan_cold_s": plan_cold_s,
        "plan_warm_s": plan_warm_s,
        "plan_speedup": plan_cold_s / plan_warm_s,
        "execute_cold_s": execute_cold_s,
        "execute_warm_s": execute_warm_s,
        "execute_speedup": execute_cold_s / execute_warm_s,
    }


def format_report(measurements: dict[str, float]) -> str:
    lines = [
        "plan cache micro-benchmark "
        f"({N_ROWS} rows, {N_ITERATIONS} iterations, best of 3)",
        f"  plan acquisition  cold {measurements['plan_cold_s'] * 1e6:9.1f} us"
        f"  warm {measurements['plan_warm_s'] * 1e6:9.1f} us"
        f"  speedup {measurements['plan_speedup']:6.1f}x",
        f"  execute           cold {measurements['execute_cold_s'] * 1e6:9.1f} us"
        f"  warm {measurements['execute_warm_s'] * 1e6:9.1f} us"
        f"  speedup {measurements['execute_speedup']:6.1f}x",
    ]
    return "\n".join(lines)


def test_micro_plan_cache(save_result):
    measurements = measure_plan_cache()
    save_result("micro_plan_cache", format_report(measurements))
    # Acceptance bar: the warm cache skips parse+compile+optimize entirely.
    assert measurements["plan_speedup"] >= 2.0
    # And the cached path never answers differently.
    database = _build_database()
    cold = database.execute(SQL)
    warm = database.execute(SQL)
    assert warm.plan_cache_hit
    assert np.array_equal(cold.column("objid"), warm.column("objid"))


if __name__ == "__main__":
    print(format_report(measure_plan_cache()))

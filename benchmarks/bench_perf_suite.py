"""Standing perf suite: sorted zero-copy kernels vs. the legacy mask kernels.

Times the micro kernels of the physical layer (``Segment.select`` /
``Segment.partition`` against the pre-sorted-layout mask implementations
reproduced below) plus an end-to-end engine run, and writes the numbers to
``BENCH_segment_kernels.json`` at the repository root so the perf trajectory
is tracked from this PR onward.

The engine section times every query individually and reports the compiled
fast path's cold/warm split:

* ``engine_per_query_cold`` — the first query (parse + compile + optimize +
  plan lowering + first adaptation burst);
* ``engine_per_query_warm`` — the median of all subsequent queries, which hit
  the plan cache by masked text (no recompilation, no parse);
* ``engine_per_query_nocache`` — the compiled fast path with the plan cache
  cleared before every statement (isolates the cache's contribution);
* ``prepared_per_query`` — the client API's prepared-statement binding path
  (``repro.connect`` → ``Connection.prepare`` → per-query bind + execute):
  no SQL text per query at all, so it must beat the warm masked-text path
  (``speedup_prepared_vs_warm`` is that ratio; the PERF_ASSERT bar);
* ``batch_per_query`` / ``engine_batch_throughput_qps`` — the vectorized batch
  executor: one ``execute_prepared_many`` over a batch of 256 **disjoint**
  range selects, answered through the strategy layer's ``select_many``
  kernels in O(touched segments) numpy calls.  ``speedup_batch_vs_prepared``
  is ``prepared_per_query / batch_per_query``; the PERF_ASSERT bar demands
  >= 10x (batch per-query cost <= 0.1x the prepared path) at the reference
  scale;
* ``engine_warm_<stage>`` / ``engine_cold_<stage>`` — mean per-stage seconds
  from the per-query profiler (parse/optimize/compile/execute).

Scales with the environment (CI runs reduced)::

    PERF_ROWS      column size for the micro kernels / engine run (default 100 000)
    PERF_QUERIES   number of end-to-end engine queries        (default 200)
    PERF_REPEAT    timing repeats per kernel                  (default 5)

The suite never fails on timing — it reports (``benchmarks/compare_bench.py``
is the gate).  Set ``PERF_ASSERT=1`` to additionally enforce the acceptance
bars (>= 5x fully-contained select, >= 2x adaptive-split partition, prepared
binding no slower than the warm masked-text path, and batch-of-256 per-query
cost <= 0.1x the prepared path at the default 100 K scale) for local
verification.  The warm engine latency itself is tracked, yardstick-normalised,
by the ``engine_narrow`` workload of ``benchmarks/e2e``.

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.perf_tracking import PerfSuite, env_scale
from repro.core.ranges import ValueRange
from repro.core.segment import Segment
from repro.engine.database import Database
from repro.util.units import KB
from repro.workloads.generators import make_column

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_segment_kernels.json"

DOMAIN = (0.0, 1_000_000.0)


# ---------------------------------------------------------------------------
# Legacy kernels (the pre-zero-copy implementation, kept as the yardstick)
# ---------------------------------------------------------------------------


def legacy_mask_select(
    values: np.ndarray, oids: np.ndarray, low: float, high: float
) -> tuple[np.ndarray, np.ndarray]:
    """The old ``Segment.select``: boolean mask over an unsorted payload + copy."""
    mask = (values >= low) & (values < high)
    return values[mask], oids[mask]


def legacy_mask_partition(
    values: np.ndarray, oids: np.ndarray, vrange: ValueRange, points: list[float]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The old ``Segment.partition``: bucket every value, copy every piece."""
    sub_ranges = vrange.split_at(points)
    cuts = [r.high for r in sub_ranges[:-1]]
    bucket = np.searchsorted(np.asarray(cuts), values, side="right")
    pieces = []
    for i, _sub in enumerate(sub_ranges):
        selected = bucket == i
        pieces.append((values[selected], oids[selected]))
    return pieces


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def run_suite() -> PerfSuite:
    n_rows = env_scale("PERF_ROWS", 100_000)
    n_queries = env_scale("PERF_QUERIES", 200)
    repeat = env_scale("PERF_REPEAT", 5)

    raw_values = make_column(n_rows, int(DOMAIN[1]), seed=17)
    raw_oids = np.arange(n_rows, dtype=np.int64)
    segment = Segment(ValueRange(*DOMAIN), raw_values.copy())

    suite = PerfSuite("segment_kernels")

    # -- select on a fully-contained range (answered from the range alone) --
    contained = ValueRange(*DOMAIN)
    suite.measure(
        "select_contained_sorted",
        lambda: segment.select(contained),
        number=200,
        repeat=repeat,
        rows=n_rows,
    )
    suite.measure(
        "select_contained_legacy_mask",
        lambda: legacy_mask_select(raw_values, raw_oids, contained.low, contained.high),
        number=20,
        repeat=repeat,
        rows=n_rows,
    )
    suite.derive(
        "speedup_select_contained",
        suite["select_contained_legacy_mask"].value / suite["select_contained_sorted"].value,
    )

    # -- select on a partial (10%) range ------------------------------------
    partial = ValueRange(450_000.0, 550_000.0)
    suite.measure(
        "select_partial_sorted",
        lambda: segment.select(partial),
        number=200,
        repeat=repeat,
        rows=n_rows,
    )
    suite.measure(
        "select_partial_legacy_mask",
        lambda: legacy_mask_select(raw_values, raw_oids, partial.low, partial.high),
        number=20,
        repeat=repeat,
        rows=n_rows,
    )
    suite.derive(
        "speedup_select_partial",
        suite["select_partial_legacy_mask"].value / suite["select_partial_sorted"].value,
    )

    # -- adaptive split (partition at the query bounds) ----------------------
    split_points = [partial.low, partial.high]
    suite.measure(
        "partition_sorted",
        lambda: segment.partition(split_points),
        number=100,
        repeat=repeat,
        rows=n_rows,
    )
    suite.measure(
        "partition_legacy_mask",
        lambda: legacy_mask_partition(
            raw_values, raw_oids, ValueRange(*DOMAIN), split_points
        ),
        number=20,
        repeat=repeat,
        rows=n_rows,
    )
    suite.derive(
        "speedup_partition",
        suite["partition_legacy_mask"].value / suite["partition_sorted"].value,
    )

    # -- end-to-end engine runs (SQL -> optimizer -> BPM -> kernels) ---------
    def build_database() -> Database:
        rng = np.random.default_rng(29)
        database = Database()
        database.create_table("p", {"objid": "int64", "ra": "float64"})
        database.bulk_load(
            "p",
            {
                "objid": np.arange(n_rows, dtype=np.int64),
                "ra": rng.uniform(0.0, 360.0, size=n_rows),
            },
        )
        database.enable_adaptive("p", "ra", strategy="segmentation", model="apm",
                                 m_min=8 * KB, m_max=32 * KB)
        return database

    def workload_bounds() -> list[tuple[float, float]]:
        rng = np.random.default_rng(43)
        return [
            (low, low + 3.6)
            for low in (float(rng.uniform(0.0, 356.0)) for _ in range(n_queries))
        ]

    def workload() -> list[str]:
        return [
            f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {high}"
            for low, high in workload_bounds()
        ]

    def engine_run(*, clear_cache: bool) -> tuple[list[float], list]:
        database = build_database()
        times: list[float] = []
        profiles = []
        for sql in workload():
            if clear_cache:
                database.plan_cache.clear()
            started = time.perf_counter()
            result = database.execute(sql)
            times.append(time.perf_counter() - started)
            profiles.append(result.profile)
        return times, profiles

    # Like the kernel timings, the engine run is repeated and the least-noisy
    # run (lowest warm median) is reported: a scheduler blip during one run
    # must not decide the standing warm-latency figure.
    best: tuple[list[float], list] | None = None
    best_warm = float("inf")
    for _ in range(min(repeat, 3)):
        candidate_times, candidate_profiles = engine_run(clear_cache=False)
        ordered = sorted(candidate_times[1:]) or [candidate_times[0]]
        candidate_warm = ordered[len(ordered) // 2]
        if candidate_warm < best_warm:
            best_warm = candidate_warm
            best = (candidate_times, candidate_profiles)
    times, profiles = best
    engine_seconds = sum(times)
    cold_seconds = times[0]
    warm_times = sorted(times[1:]) or [cold_seconds]
    warm_seconds = warm_times[len(warm_times) // 2]
    suite.derive(
        "engine_end_to_end", engine_seconds, unit="s",
        rows=n_rows, queries=n_queries,
    )
    suite.derive(
        "engine_per_query", engine_seconds / n_queries, unit="s",
        rows=n_rows, queries=n_queries,
    )
    suite.derive(
        "engine_per_query_cold", cold_seconds, unit="s",
        rows=n_rows, queries=n_queries,
    )
    suite.derive(
        "engine_per_query_warm", warm_seconds, unit="s",
        rows=n_rows, queries=n_queries,
        note="median over all queries after the first",
    )

    # Per-stage attribution (the profiler satellite): cold = first query,
    # warm = mean over the rest.
    cold_stages = profiles[0].stage_seconds()
    for stage, seconds in cold_stages.items():
        suite.derive(f"engine_cold_{stage}", seconds, unit="s")
    warm_profiles = profiles[1:] or profiles
    for stage in cold_stages:
        mean = sum(profile.stage_seconds()[stage] for profile in warm_profiles)
        suite.derive(f"engine_warm_{stage}", mean / len(warm_profiles), unit="s")

    # The client API's prepared-statement binding path: one
    # Connection.prepare, then only bind-and-execute per query — no SQL text
    # is touched again (vs. the warm masked-text path, which still pays
    # normalize + literal masking + cache probe per query).
    def prepared_run() -> list[float]:
        from repro.api import connect

        connection = connect(build_database())
        select = connection.prepare("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        times: list[float] = []
        for bounds in workload_bounds():
            started = time.perf_counter()
            select.execute(bounds)
            times.append(time.perf_counter() - started)
        return times

    best_prepared: list[float] | None = None
    best_prepared_median = float("inf")
    for _ in range(min(repeat, 3)):
        candidate = prepared_run()
        ordered = sorted(candidate[1:]) or [candidate[0]]
        if ordered[len(ordered) // 2] < best_prepared_median:
            best_prepared = candidate
            best_prepared_median = ordered[len(ordered) // 2]
    prepared_warm = sorted(best_prepared[1:]) or [best_prepared[0]]
    suite.derive(
        "prepared_per_query", prepared_warm[len(prepared_warm) // 2], unit="s",
        rows=n_rows, queries=n_queries,
        note="median per-query over Connection.prepare + PreparedStatement.execute "
             "(first query excluded: it pays the adaptation burst)",
    )
    suite.derive(
        "speedup_prepared_vs_warm",
        suite["engine_per_query_warm"].value / suite["prepared_per_query"].value,
        note="prepared binding vs the warm masked-text path (bar: >= 1x)",
    )

    # The vectorized batch executor: N bound range-selects answered per numpy
    # call, not per Python dispatch.  A batch of 256 *disjoint* ranges — the
    # shape the overlap-cluster-only path could never amortize — runs through
    # execute_prepared_many; the first batch pays the adaptation burst, the
    # timed batches measure the steady state (like the warm per-query paths).
    batch_size = 256

    def disjoint_batch_bounds(count: int) -> list[tuple[float, float]]:
        rng = np.random.default_rng(51)
        spacing = 360.0 / count
        return [
            (start, start + spacing * 0.5)
            for start in (
                i * spacing + float(rng.uniform(0.0, spacing * 0.25))
                for i in range(count)
            )
        ]

    def batch_run() -> list[float]:
        database = build_database()
        prepared = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        parameters = disjoint_batch_bounds(batch_size)
        results = database.execute_prepared_many(prepared, parameters)  # warm-up
        assert len(results) == batch_size and all(r.batched for r in results)
        times: list[float] = []
        for _ in range(max(repeat, 3)):
            started = time.perf_counter()
            database.execute_prepared_many(prepared, parameters)
            times.append(time.perf_counter() - started)
        return times

    batch_best = min(batch_run())
    suite.derive(
        "batch_per_query", batch_best / batch_size, unit="s",
        rows=n_rows, queries=batch_size,
        note="execute_prepared_many over 256 disjoint range selects "
             "(vectorized batch executor; best batch after warm-up)",
    )
    suite.derive(
        "engine_batch_throughput_qps", batch_size / batch_best, unit="qps",
        rows=n_rows, queries=batch_size,
        note="in-process execute_prepared_many (no server; see "
             "batch_throughput_qps for the server-mediated figure)",
    )
    suite.derive(
        "speedup_batch_vs_prepared",
        suite["prepared_per_query"].value / suite["batch_per_query"].value,
        note="batch-of-256 per-query cost vs the prepared binding path "
             "(bar: >= 10x at the reference scale)",
    )

    # The compiled fast path with the plan cache disabled: isolates what the
    # cache contributes on top of the slot-based executor.
    nocache_times, _ = engine_run(clear_cache=True)
    suite.derive(
        "engine_per_query_nocache", sum(nocache_times) / len(nocache_times), unit="s",
        rows=n_rows, queries=n_queries,
        note="plan cache cleared before every statement",
    )
    return suite


def main() -> int:
    suite = run_suite()
    path = suite.write(REPORT_PATH)
    print(suite.format_summary())
    print(f"[saved to {path}]")

    if os.environ.get("PERF_ASSERT") == "1":
        contained = suite["speedup_select_contained"].value
        partition = suite["speedup_partition"].value
        warm = suite["engine_per_query_warm"].value
        prepared = suite["prepared_per_query"].value
        batch = suite["batch_per_query"].value
        assert contained >= 5.0, f"fully-contained select speedup {contained:.1f}x < 5x"
        assert partition >= 2.0, f"partition speedup {partition:.1f}x < 2x"
        at_reference_scale = (
            env_scale("PERF_ROWS", 100_000) == 100_000
            and env_scale("PERF_QUERIES", 200) == 200
        )
        if at_reference_scale:
            # The acceptance bars are defined at the reference scale only.
            # Prepared skips normalize + masking, so it should not lose to the
            # warm masked-text path; the two differ by ~1 µs by construction,
            # well inside scheduler jitter, so the bar carries a 5% tolerance
            # (a real regression on the binding path is far larger).
            assert prepared <= warm * 1.05, (
                f"prepared binding {prepared * 1e6:.1f} µs not faster than "
                f"warm masked-text path {warm * 1e6:.1f} µs (+5% tolerance)"
            )
            assert batch <= 0.1 * prepared, (
                f"batch-of-256 per-query {batch * 1e6:.1f} µs > 0.1x the "
                f"prepared path ({prepared * 1e6:.1f} µs)"
            )
        print(
            f"[PERF_ASSERT ok: select {contained:.1f}x, partition {partition:.1f}x, "
            f"engine warm {warm * 1e6:.1f} µs, "
            f"prepared {prepared * 1e6:.1f} µs, batch {batch * 1e6:.2f} µs "
            f"({suite['speedup_batch_vs_prepared'].value:.1f}x)]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

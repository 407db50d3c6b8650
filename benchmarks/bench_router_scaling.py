"""Divergent multi-replica scaling: workload-clustered replicas vs one engine.

Drives the same interleaved multi-modal workload through the
:class:`~repro.cluster.Router` at fleet sizes N=1, 2 and 4 and measures
engine-side routed-wave throughput.  The replicas are *replication*-strategy
columns under a storage budget sized so the experiment captures the whole
point of the subsystem:

* One engine serving four interleaved query modes must keep four replica
  working sets alive at once.  That exceeds the budget, so every query pays
  :meth:`ReplicatedColumn._enforce_budget` — an LRU sort of the evictable
  replicas — and the next query on an evicted mode pays cover backtracking
  and rematerialization.  The engine thrashes at the budget boundary.
* After :meth:`Router.retune` clusters the workload and assigns each mode to
  its own replica, every replica holds *one* mode's working set — under
  budget, no evictions, no rematerialization, small trees.

Any speedup is therefore **divergent specialization**, not thread
parallelism: all replicas share one Python process (and on a single-core
host, one core).  ``router_scaling_x`` is co-measured (N=1 and N=4 run the
identical routed-wave path in the same process), so the ratio needs no
machine factor.  Until PR 21 the N=1 side also walked the whole replica tree
four times per query and the ratio read 2.5x; with the walks gone it reads
0.6-1.1x at the reference scale (README "Scale-out", ROADMAP item 6), below
the PERF_ASSERT bar of 2x this script still carries.

Metrics merged into ``BENCH_segment_kernels.json``:

* ``router_throughput_qps``   — routed-wave throughput at N=4 (the CI gate)
* ``router_single_replica_qps`` — the same path at N=1 (the 1x yardstick)
* ``router_scaling_x``        — N=4 over N=1 (bar: >= 2x at reference scale)
* ``router_retune_cost_drop_x`` — modeled scan bytes before/after retune
* ``degraded_throughput_qps`` — N=4 with one replica quarantined (failover
  re-routes its clusters to the best surviving sibling; reported, not gated)

Scales with the environment (CI runs reduced)::

    PERF_ROUTER_ROWS      rows in the table               (default 100 000)
    PERF_ROUTER_QUERIES   timed queries per fleet size    (default 2 000)
    PERF_ROUTER_CHUNK     queries per routed wave         (default 32)
    PERF_ROUTER_SLACK_KB  budget headroom over the column (default 48)
    PERF_REPEAT           timing sweeps                   (default 3)

Run after ``bench_perf_suite.py`` (the records merge into its report)::

    PYTHONPATH=src python benchmarks/bench_router_scaling.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.perf_tracking import PerfSuite, env_scale  # noqa: E402
from repro.cluster import Router  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.util.units import KB  # noqa: E402
from repro.workloads import multimodal_workload  # noqa: E402

REPORT_PATH = REPO_ROOT / "BENCH_segment_kernels.json"

SQL = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
DOMAIN = (0.0, 360.0)
N_MODES = 4
SELECTIVITY = 0.002


def build_router(
    n_replicas: int, *, n_rows: int, slack_kb: int
) -> Router:
    """A fresh fleet over one replication column squeezed by a storage budget.

    The budget is the column itself plus ``slack_kb`` of replica headroom —
    at the reference scale enough for roughly one mode's working set, well
    short of all four.
    """
    rng = np.random.default_rng(29)
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load(
        "p",
        {
            "objid": np.arange(n_rows, dtype=np.int64),
            "ra": rng.uniform(*DOMAIN, size=n_rows),
        },
    )
    database.enable_adaptive(
        "p", "ra", strategy="replication", model="apm",
        m_min=1 * KB, m_max=4 * KB,
        storage_budget=n_rows * 8 + slack_kb * KB,
    )
    return Router(database, n_replicas, n_clusters=N_MODES, seed=0)


def workload_bounds(count: int, seed: int) -> list[tuple[float, float]]:
    workload = multimodal_workload(
        count, DOMAIN, SELECTIVITY, n_modes=N_MODES, interleave=True, seed=seed
    )
    return [(query.low, query.high) for query in workload.queries]


def run_routed(router: Router, prepared, bounds, *, chunk: int) -> None:
    """Route every query, dispatch per-replica waves, wait for the fleet."""
    buckets: list[list] = [[] for _ in range(router.n_replicas)]
    futures = []
    for low, high in bounds:
        index = router.route(prepared, (low, high))
        buckets[index].append((prepared, (low, high)))
        if len(buckets[index]) >= chunk:
            wave, buckets[index] = buckets[index], []
            futures.append(
                router.replicas[index].submit(router.execute_wave_on, index, wave)
            )
    for index, wave in enumerate(buckets):
        if wave:
            futures.append(
                router.replicas[index].submit(router.execute_wave_on, index, wave)
            )
    for future in futures:
        future.result()


def measure_fleet(
    n_replicas: int,
    *,
    n_rows: int,
    slack_kb: int,
    total_queries: int,
    chunk: int,
    repeat: int,
    degrade: bool = False,
) -> tuple[float, dict | None, float | None]:
    """Best routed qps at this fleet size (plus the retune report for N>1).

    With ``degrade=True`` the fleet is re-measured after quarantining one
    replica (the degraded-mode throughput).
    """
    router = build_router(n_replicas, n_rows=n_rows, slack_kb=slack_kb)
    retune_report = None
    try:
        prepared = router.prepare_statement(SQL)
        # Warm-up: adaptation burst, plan caches, thread pools.
        run_routed(router, prepared, workload_bounds(512, seed=7), chunk=chunk)
        if n_replicas > 1:
            # Cluster the observed workload and give each mode a home; a
            # short settle run lets the now-specialized trees re-adapt.
            retune_report = router.retune()
            run_routed(router, prepared, workload_bounds(256, seed=8), chunk=chunk)
        best_wall = float("inf")
        for sweep in range(repeat):
            bounds = workload_bounds(total_queries, seed=9 + sweep)
            started = time.perf_counter()
            run_routed(router, prepared, bounds, chunk=chunk)
            best_wall = min(best_wall, time.perf_counter() - started)
        degraded_qps = None
        if degrade and n_replicas > 1:
            # Graceful degradation: quarantine one replica (the failure
            # detector's public transition — its clusters fail over to the
            # best surviving sibling) and re-measure the same workload on
            # the N-1 survivors.
            assert router.quarantine_replica(n_replicas - 1)
            run_routed(router, prepared, workload_bounds(256, seed=8), chunk=chunk)
            degraded_wall = float("inf")
            for sweep in range(repeat):
                bounds = workload_bounds(total_queries, seed=9 + sweep)
                started = time.perf_counter()
                run_routed(router, prepared, bounds, chunk=chunk)
                degraded_wall = min(degraded_wall, time.perf_counter() - started)
            degraded_qps = total_queries / degraded_wall
        return total_queries / best_wall, retune_report, degraded_qps
    finally:
        router.close()


def run_bench() -> PerfSuite:
    n_rows = env_scale("PERF_ROUTER_ROWS", 100_000)
    total_queries = env_scale("PERF_ROUTER_QUERIES", 2_000)
    chunk = env_scale("PERF_ROUTER_CHUNK", 32)
    slack_kb = env_scale("PERF_ROUTER_SLACK_KB", 48)
    repeat = env_scale("PERF_REPEAT", 3)

    suite = PerfSuite("segment_kernels")
    common = dict(
        n_rows=n_rows, total_queries=total_queries, chunk=chunk,
        slack_kb=slack_kb, repeat=repeat,
    )

    qps = {}
    retune_report = None
    degraded_qps = None
    for n_replicas in (1, 2, 4):
        qps[n_replicas], report, degraded = measure_fleet(
            n_replicas, n_rows=n_rows, slack_kb=slack_kb,
            total_queries=total_queries, chunk=chunk, repeat=repeat,
            degrade=n_replicas == 4,
        )
        if n_replicas == 4:
            retune_report = report
            degraded_qps = degraded
        print(
            f"  N={n_replicas}: {qps[n_replicas]:,.0f} qps"
            + (f"  ({qps[n_replicas] / qps[1]:.2f}x)" if n_replicas > 1 else "")
        )
    if degraded_qps is not None:
        print(
            f"  N=4 degraded (1 quarantined): {degraded_qps:,.0f} qps "
            f"({degraded_qps / qps[4]:.2f} of full fleet)"
        )

    suite.derive(
        "router_single_replica_qps", qps[1], unit="qps", **common,
        note="routed waves, one replica: the whole multi-modal workload "
             "thrashes one storage budget (the 1x yardstick)",
    )
    suite.derive(
        "router_throughput_qps", qps[4], unit="qps", **common,
        note="routed waves, four workload-clustered replicas after retune(): "
             "each mode's working set fits its replica's budget",
    )
    suite.derive(
        "router_scaling_2x", qps[2] / qps[1], unit="x", **common,
        note="N=2 over N=1, co-measured (context for the scaling curve)",
    )
    suite.derive(
        "router_scaling_x", qps[4] / qps[1], unit="x", **common,
        note="N=4 over N=1, co-measured on one process/core: the gain is "
             "divergent specialization, not parallelism (bar: >= 2x at the "
             "reference scale)",
    )
    if degraded_qps is not None:
        suite.derive(
            "degraded_throughput_qps", degraded_qps, unit="qps", **common,
            note="routed waves at N=4 with one replica quarantined: failover "
                 "re-routes its clusters to the surviving siblings (gate: "
                 ">= 50% of router_throughput_qps)",
        )
        suite.derive(
            "degraded_retention_x", degraded_qps / qps[4], unit="x", **common,
            note="degraded over full-fleet throughput, co-measured (the "
                 "graceful-degradation floor)",
        )
    if retune_report and retune_report.get("initial_cost_bytes"):
        suite.derive(
            "router_retune_cost_drop_x",
            retune_report["initial_cost_bytes"]
            / max(retune_report["final_cost_bytes"], 1.0),
            unit="x",
            improved=bool(retune_report["improved"]),
            note="modeled scan bytes across the fleet before vs after "
                 "Router.retune() at N=4",
        )
    return suite


def main() -> int:
    suite = run_bench()
    path = suite.merge_write(REPORT_PATH)
    print(suite.format_summary())
    print(f"[merged into {path}]")

    if os.environ.get("PERF_ASSERT") == "1":
        scaling = suite["router_scaling_x"].value
        at_reference_scale = (
            env_scale("PERF_ROUTER_ROWS", 100_000) == 100_000
            and env_scale("PERF_ROUTER_QUERIES", 2_000) == 2_000
            and env_scale("PERF_ROUTER_SLACK_KB", 48) == 48
        )
        if at_reference_scale:
            # Co-measured ratio (see the module docstring): no machine factor.
            assert scaling >= 2.0, (
                f"4 workload-clustered replicas only {scaling:.2f}x one engine "
                f"on the multi-modal workload (bar: >= 2x)"
            )
        drop = suite["router_retune_cost_drop_x"].value
        assert drop > 1.0, (
            f"Router.retune() did not lower the modeled fleet cost "
            f"({drop:.2f}x)"
        )
        retention = suite["degraded_retention_x"].value
        # Co-measured like the scaling ratio: no machine factor needed.
        assert retention >= 0.5, (
            f"a 3-of-4 degraded fleet retains only {retention:.2f} of full "
            f"throughput (bar: >= 0.5)"
        )
        print(
            f"[PERF_ASSERT ok: N=4 {suite['router_throughput_qps'].value:,.0f} qps "
            f"({scaling:.2f}x one replica), retune cost drop {drop:.1f}x]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

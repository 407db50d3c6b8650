"""Server throughput under concurrent clients: admission waves vs per-query.

Starts a real :class:`~repro.server.ReproServer` on a loopback socket, drives
it with N async client connections, and measures what the batch admission
controller turns that concurrency into.  Three sweeps:

* **Throughput** — every client keeps ``PERF_SERVER_DEPTH`` EXECUTEMANY
  requests of ``PERF_SERVER_CHUNK`` bindings in flight; each binding is
  admitted separately, so bindings batch with *other* connections' queries
  into shared waves.  Yields ``batch_throughput_qps``, the figure the CI gate
  watches (the in-process engine-side twin is ``engine_batch_throughput_qps``
  from ``bench_perf_suite.py``).
* **Latency** — the same fleet issuing one EXECUTE frame per query; yields
  ``server_latency_p50`` / ``server_latency_p99``, the round trip a client
  observes under saturation (admission window, wave queueing, execution and
  wire included — with C queries in flight, Little's law puts the mean at
  C / throughput).
* **Per-query reference** — ``server_per_query_reference``: one client, one
  query at a time, admission window 0, against the same engine.  Every query
  is then its own wave: the full prepared path plus one wire round trip, with
  nothing amortized.  This is the path a conventional one-request-per-query
  server would take, and the denominator of ``speedup_server_vs_prepared`` —
  a co-measured, host-speed-independent ratio (both sides move together on a
  slow host), so the PERF_ASSERT bar (>= 5x at the reference scale) needs no
  machine factor.  ``server_inprocess_prepared_per_query`` (the same workload
  on the in-process prepared path, no server) is recorded for context.

Everything — clients, server, engine — shares one process; on a single-core
host the throughput figure is therefore a *lower* bound (client-side frame
work steals server cycles).

Scales with the environment (CI runs reduced)::

    PERF_SERVER_ROWS       rows in the table             (default 100 000)
    PERF_SERVER_CLIENTS    concurrent client connections (default 16)
    PERF_SERVER_DEPTH      in-flight requests per client (default 8)
    PERF_SERVER_CHUNK      bindings per EXECUTEMANY      (default 16)
    PERF_SERVER_QUERIES    total queries per sweep       (default 4096)
    PERF_SERVER_WINDOW_US  admission window              (default 200)
    PERF_REPEAT            timing sweeps                 (default 3)

The records are **merged** into ``BENCH_segment_kernels.json`` (run
``bench_perf_suite.py`` first to refresh the rest of the report)::

    PYTHONPATH=src python benchmarks/bench_server_throughput.py
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.aio import connect  # noqa: E402
from repro.bench.perf_tracking import PerfSuite, env_scale  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.server import ReproServer  # noqa: E402
from repro.util.units import KB  # noqa: E402

REPORT_PATH = REPO_ROOT / "BENCH_segment_kernels.json"

SQL = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"

#: Range width in degrees — narrow, so each result ships ~10 rows and the
#: measurement weighs admission + execution, not result tonnage.
RANGE_WIDTH = 0.036


def build_database(n_rows: int) -> Database:
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


def workload_bounds(count: int, seed: int = 51) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    return [
        (low, low + RANGE_WIDTH)
        for low in (float(rng.uniform(0.0, 360.0 - RANGE_WIDTH)) for _ in range(count))
    ]


def _shares(items: list, count: int) -> list[list]:
    shares = [items[i::count] for i in range(count)]
    return [share for share in shares if share]


async def throughput_sweep(
    address: tuple[str, int],
    *,
    clients: int,
    depth: int,
    chunk: int,
    total_queries: int,
) -> float:
    """Wall seconds to answer ``total_queries`` via pipelined EXECUTEMANY."""
    connections = [await connect(*address) for _ in range(clients)]
    statements = [await connection.prepare(SQL) for connection in connections]
    bounds = workload_bounds(total_queries)

    async def worker(statement, share: list[tuple[float, float]]) -> None:
        for start in range(0, len(share), chunk):
            await statement.executemany(share[start:start + chunk])

    started = time.perf_counter()
    await asyncio.gather(
        *(
            worker(statements[i], worker_share)
            # `depth` workers per connection, so that many chunks stay in
            # flight per client, pipelined over one socket.
            for i, client_share in enumerate(_shares(bounds, clients))
            for worker_share in _shares(client_share, depth)
        )
    )
    wall = time.perf_counter() - started
    for connection in connections:
        await connection.close()
    return wall


async def latency_sweep(
    address: tuple[str, int],
    *,
    clients: int,
    depth: int,
    total_queries: int,
) -> list[float]:
    """Per-query round-trip seconds with one EXECUTE frame per query."""
    connections = [await connect(*address) for _ in range(clients)]
    statements = [await connection.prepare(SQL) for connection in connections]
    bounds = workload_bounds(total_queries, seed=52)
    latencies: list[float] = []

    async def worker(statement, share: list[tuple[float, float]]) -> None:
        for low, high in share:
            started = time.perf_counter()
            await statement.execute((low, high))
            latencies.append(time.perf_counter() - started)

    await asyncio.gather(
        *(
            worker(statements[i], worker_share)
            for i, client_share in enumerate(_shares(bounds, clients))
            for worker_share in _shares(client_share, depth)
        )
    )
    for connection in connections:
        await connection.close()
    return latencies


async def per_query_reference(database: Database, total_queries: int) -> float:
    """Sequential per-query seconds through a window-0 server (waves of one)."""
    async with ReproServer(database, port=0, batch_window_us=0.0) as server:
        assert server.address is not None
        connection = await connect(*server.address)
        statement = await connection.prepare(SQL)
        bounds = workload_bounds(total_queries, seed=53)
        for low, high in bounds[: min(64, total_queries)]:  # warm the path
            await statement.execute((low, high))
        started = time.perf_counter()
        for low, high in bounds:
            await statement.execute((low, high))
        elapsed = time.perf_counter() - started
        await connection.close()
    return elapsed / len(bounds)


def inprocess_reference(database: Database, total_queries: int) -> float:
    """Sequential per-query seconds of the in-process prepared path."""
    prepared = database.prepare_statement(SQL)
    bounds = workload_bounds(total_queries, seed=53)
    for low, high in bounds[: min(64, total_queries)]:
        database.execute_prepared(prepared, (low, high))
    started = time.perf_counter()
    for low, high in bounds:
        database.execute_prepared(prepared, (low, high))
    return (time.perf_counter() - started) / len(bounds)


async def run_bench() -> PerfSuite:
    n_rows = env_scale("PERF_SERVER_ROWS", 100_000)
    clients = env_scale("PERF_SERVER_CLIENTS", 16)
    depth = env_scale("PERF_SERVER_DEPTH", 8)
    chunk = env_scale("PERF_SERVER_CHUNK", 16)
    total_queries = env_scale("PERF_SERVER_QUERIES", 4096)
    window_us = env_scale("PERF_SERVER_WINDOW_US", 200)
    repeat = env_scale("PERF_REPEAT", 3)

    suite = PerfSuite("segment_kernels")
    database = build_database(n_rows)
    inflight = clients * depth * chunk
    server = ReproServer(
        database,
        port=0,
        batch_window_us=float(window_us),
        # Cap waves at half the steady-state inflight: the queue stays over
        # the cap under load, so waves run back-to-back (no window idling).
        max_wave=max(16, min(1024, inflight // 2)),
        max_inflight=max(1024, inflight * 4),
    )
    async with server:
        assert server.address is not None
        # Warm-up: first contact pays the adaptation burst and cold caches.
        await throughput_sweep(
            server.address, clients=clients, depth=depth, chunk=chunk,
            total_queries=min(total_queries, 512),
        )
        best_wall = float("inf")
        for _ in range(repeat):
            wall = await throughput_sweep(
                server.address, clients=clients, depth=depth, chunk=chunk,
                total_queries=total_queries,
            )
            best_wall = min(best_wall, wall)
        latencies = np.sort(
            np.asarray(
                await latency_sweep(
                    server.address, clients=clients, depth=depth,
                    total_queries=min(total_queries, 2048),
                )
            )
        )
        admission = server.admission.stats

    reference = await per_query_reference(database, min(total_queries, 1024))
    inprocess = inprocess_reference(database, min(total_queries, 2048))

    suite.derive(
        "batch_throughput_qps", total_queries / best_wall, unit="qps",
        rows=n_rows, queries=total_queries,
        clients=clients, depth=depth, chunk=chunk, window_us=window_us,
        mean_wave=round(admission.wave_members / admission.waves, 1)
        if admission.waves else 0.0,
        note="server-mediated: N async clients -> admission waves -> one engine",
    )
    suite.derive(
        "server_latency_p50",
        float(latencies[int(0.50 * (latencies.size - 1))]), unit="s",
        clients=clients, depth=depth,
        note="per-EXECUTE round trip under saturation (depth x clients in flight)",
    )
    suite.derive(
        "server_latency_p99",
        float(latencies[int(0.99 * (latencies.size - 1))]), unit="s",
        clients=clients, depth=depth,
        note="round-trip as a client sees it: admission window + wave queueing "
             "+ execution + wire",
    )
    suite.derive(
        "server_per_query_reference", reference, unit="s",
        rows=n_rows,
        note="one client, one query at a time, window 0: the unamortized "
             "per-query server path (the 1x yardstick)",
    )
    suite.derive(
        "server_inprocess_prepared_per_query", inprocess, unit="s",
        rows=n_rows,
        note="co-measured sequential in-process prepared path (context)",
    )
    suite.derive(
        "speedup_server_vs_prepared",
        (total_queries / best_wall) * reference,
        note="server-mediated throughput vs the per-query prepared path through "
             "the same server; host-speed independent (both sides co-measured; "
             "bar: >= 5x at the reference scale)",
    )
    return suite


def main() -> int:
    suite = asyncio.run(run_bench())
    path = suite.merge_write(REPORT_PATH)
    print(suite.format_summary())
    print(f"[merged into {path}]")

    if os.environ.get("PERF_ASSERT") == "1":
        speedup = suite["speedup_server_vs_prepared"].value
        at_reference_scale = (
            env_scale("PERF_SERVER_ROWS", 100_000) == 100_000
            and env_scale("PERF_SERVER_CLIENTS", 16) >= 16
            and env_scale("PERF_SERVER_QUERIES", 4096) == 4096
        )
        if at_reference_scale:
            # The ratio is host-speed independent (see the module docstring),
            # so the bar needs no machine factor.
            assert speedup >= 5.0, (
                f"server-mediated throughput only {speedup:.1f}x the per-query "
                f"server path (bar: >= 5x)"
            )
        p99 = suite["server_latency_p99"].value
        print(
            f"[PERF_ASSERT ok: server {suite['batch_throughput_qps'].value:,.0f} qps "
            f"({speedup:.1f}x per-query), p99 {p99 * 1e3:.2f} ms]"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

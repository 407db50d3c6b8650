"""Multi-replica server tests: ``--replicas N`` over real sockets.

A routed server must look exactly like a single-engine server from the
client's side — same answers, same DB-API surface — while DDL fans out to
every replica, admission stats grow a per-replica breakdown, and the
``router_stats`` admin op exposes the fleet.
"""

from __future__ import annotations

import asyncio

import numpy as np

import repro.aio
from repro.server import ReproServer, serve

SQL = "select objid from p where ra between ? and ?"
N_ROWS = 2_000


def run(main):
    return asyncio.run(main())


async def start_routed_server(replicas: int = 2, **knobs) -> ReproServer:
    knobs.setdefault("batch_window_us", 2_000.0)
    server = await serve(port=0, replicas=replicas, **knobs)
    rng = np.random.default_rng(17)
    connection = await repro.aio.connect(*server.address)
    await connection.admin.create_table("p", {"objid": "int64", "ra": "float64"})
    await connection.admin.bulk_load(
        "p",
        {
            "objid": np.arange(N_ROWS, dtype=np.int64),
            "ra": rng.uniform(0.0, 360.0, size=N_ROWS),
        },
    )
    await connection.admin.enable_adaptive(
        "p", "ra", strategy="segmentation", model="apm",
        m_min=1_024, m_max=4_096,
    )
    await connection.close()
    return server


def expected_objids(low: float, high: float) -> list[int]:
    rng = np.random.default_rng(17)
    objid = np.arange(N_ROWS, dtype=np.int64)
    ra = rng.uniform(0.0, 360.0, size=N_ROWS)
    return sorted(objid[(ra >= low) & (ra <= high)].tolist())


class TestRoutedCorrectness:
    def test_prepared_queries_answer_identically_to_numpy(self):
        async def go():
            async with await start_routed_server(replicas=3) as server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                rows = {}
                for low, high in [(10.0, 40.0), (200.0, 230.0), (350.0, 360.0)]:
                    result = await statement.execute((low, high))
                    rows[(low, high)] = sorted(result.columns["objid"].tolist())
                await connection.close()
                return rows

        rows = run(go)
        for (low, high), got in rows.items():
            assert got == expected_objids(low, high)

    def test_many_interleaved_queries_spread_over_replicas(self):
        async def go():
            async with await start_routed_server(replicas=2) as server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                checks = []
                for index in range(40):
                    mode = (index % 2) * 180.0
                    low, high = mode + 10.0, mode + 30.0
                    result = await statement.execute((low, high))
                    checks.append(
                        sorted(result.columns["objid"].tolist())
                        == expected_objids(low, high)
                    )
                stats = await connection.admin.router_stats()
                await connection.close()
                return checks, stats

        checks, stats = run(go)
        assert all(checks)
        assert stats["routing"]["routed"] >= 40
        served = [replica["queries_served"] for replica in stats["replicas"]]
        assert sum(served) >= 40

    def test_literal_statements_work_through_the_router(self):
        async def go():
            async with await start_routed_server(replicas=2) as server:
                connection = await repro.aio.connect(*server.address)
                cursor = connection.cursor()
                await cursor.execute("select objid from p where ra between 5 and 25")
                rows = cursor.fetchall()
                await connection.close()
                return sorted(row[0] for row in rows)

        assert run(go) == expected_objids(5.0, 25.0)


class TestFanOut:
    def test_ddl_and_loads_reach_every_replica(self):
        async def go():
            async with await start_routed_server(replicas=3) as server:
                router = server.router
                tables = [
                    replica.database.table_names() for replica in router.replicas
                ]
                row_counts = [
                    len(replica.database.catalog.column("p", "objid").bind(0).tail)
                    for replica in router.replicas
                ]
                adaptive = [
                    replica.database.adaptive_handle("p", "ra") is not None
                    for replica in router.replicas
                ]
                return tables, row_counts, adaptive

        tables, row_counts, adaptive = run(go)
        assert tables == [["p"]] * 3
        assert row_counts == [N_ROWS] * 3
        assert adaptive == [True] * 3

    def test_drop_table_fans_out(self):
        async def go():
            async with await start_routed_server(replicas=2) as server:
                connection = await repro.aio.connect(*server.address)
                await connection.admin.drop_table("p")
                names = await connection.admin.table_names()
                per_replica = [
                    replica.database.table_names()
                    for replica in server.router.replicas
                ]
                await connection.close()
                return names, per_replica

        names, per_replica = run(go)
        assert names == []
        assert per_replica == [[], []]


class TestAdminSurfaces:
    def test_router_stats_exposes_fleet_and_queue_depths(self):
        async def go():
            async with await start_routed_server(replicas=2) as server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                await statement.execute((10.0, 20.0))
                before = await connection.admin.router_stats()
                for low in (100.0, 200.0, 300.0):
                    await statement.execute((low, low + 10.0))
                await asyncio.to_thread(server.router.retune)
                stats = await connection.admin.router_stats()
                await connection.close()
                return before, stats

        before, stats = run(go)
        assert len(stats["replicas"]) == 2
        for replica in stats["replicas"]:
            assert "queue_depth" in replica
            assert "columns" in replica
        assert "hot_query_threshold" in stats["routing"]
        assert "cost_model" not in stats
        # The retune's what-if matrix: modeled bytes per replica, one per cluster.
        assert before["modeled_bytes"] == {}
        assert sorted(stats["modeled_bytes"]) == ["0", "1"]
        for costs in stats["modeled_bytes"].values():
            assert len(costs) == stats["clusters"]["n_clusters"]
            assert all(cost > 0.0 for cost in costs)

    def test_single_engine_server_reports_a_fleet_of_one(self):
        async def go():
            async with ReproServer(port=0) as server:
                connection = await repro.aio.connect(*server.address)
                stats = await connection.admin.router_stats()
                await connection.close()
                return stats

        stats = run(go)
        assert "note" not in stats
        assert [replica["index"] for replica in stats["replicas"]] == [0]
        assert stats["replicas"][0]["queue_depth"] == 0
        assert stats["health"]["states"] == ["healthy"]
        assert stats["health"]["routable"] == [0]
        assert stats["routing"]["history"] == 0  # nothing to choose, nothing kept

    def test_admission_stats_gain_per_replica_breakdown(self):
        async def go():
            async with await start_routed_server(replicas=2) as server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                for _ in range(8):
                    await statement.execute((100.0, 130.0))
                stats = await connection.admin.admission_stats()
                await connection.close()
                return stats

        stats = run(go)
        per_replica = stats["per_replica"]
        assert len(per_replica) == 2
        assert sum(shard["members"] for shard in per_replica) >= 8
        for shard in per_replica:
            assert set(shard) >= {"waves", "members", "mean_wave", "pending"}

    def test_cache_stats_are_merged_across_replicas(self):
        async def go():
            async with await start_routed_server(replicas=2) as server:
                connection = await repro.aio.connect(*server.address)
                statement = await connection.prepare(SQL)
                await statement.execute((10.0, 20.0))
                stats = await connection.admin.cache_stats()
                await connection.close()
                return stats

        stats = run(go)
        assert len(stats["replicas"]) == 2
        assert stats["total"]["hits"] + stats["total"]["misses"] > 0


class TestKnobs:
    def test_hello_reports_replica_count(self):
        async def go():
            async with await start_routed_server(replicas=2) as server:
                connection = await repro.aio.connect(*server.address)
                info = dict(connection.server_info)
                await connection.close()
                return info

        info = run(go)
        assert info["knobs"]["replicas"] == 2

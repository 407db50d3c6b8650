"""Router: cloning, fan-out, table routing, hot spreading, retune."""

import numpy as np
import pytest

from repro.cluster import Router, clone_database, merge_cache_stats, what_if_bytes
from repro.core.ranges import ValueRange
from repro.engine.database import Database
from repro.util.units import KB
from repro.workloads import changing_workload, multimodal_workload
from tests.support.cover_oracle import minimal_cover

SQL = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
DOMAIN = (0.0, 360.0)
N_ROWS = 8_000


def build_database(seed=7, strategy="segmentation", **options):
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load(
        "p",
        {
            "objid": np.arange(N_ROWS, dtype=np.int64),
            "ra": rng.uniform(*DOMAIN, size=N_ROWS),
        },
    )
    database.enable_adaptive(
        "p", "ra", strategy=strategy, model="apm", m_min=1 * KB, m_max=4 * KB, **options
    )
    return database


def bounds_of(workload):
    return [(query.low, query.high) for query in workload.queries]


class TestCloneDatabase:
    def test_clone_answers_identically(self):
        source = build_database()
        clone = clone_database(source)
        for low, high in [(10.0, 20.0), (0.0, 360.0), (359.0, 359.5)]:
            got = clone.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {high}")
            want = source.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {high}")
            assert sorted(got.columns["objid"].tolist()) == sorted(
                want.columns["objid"].tolist()
            )

    def test_clone_does_not_share_layout(self):
        source = build_database()
        clone = clone_database(source)
        for _ in range(30):
            clone.execute("SELECT objid FROM p WHERE ra BETWEEN 100 AND 101")
        source_segments = source.adaptive_handle("p", "ra").adaptive.describe()[
            "segment_count"
        ]
        clone_segments = clone.adaptive_handle("p", "ra").adaptive.describe()[
            "segment_count"
        ]
        assert clone_segments > source_segments  # only the clone adapted

    def test_clone_copies_data(self):
        source = build_database()
        clone = clone_database(source)
        source_tail = source.catalog.column("p", "ra").bind(0).tail
        clone_tail = clone.catalog.column("p", "ra").bind(0).tail
        assert not np.shares_memory(source_tail, clone_tail)

    def test_model_instance_is_rejected(self):
        from repro.core.models import AdaptivePageModel

        source = build_database()
        source.enable_adaptive(
            "p", "objid", strategy="segmentation",
            model=AdaptivePageModel(1 * KB, 4 * KB),
        )
        with pytest.raises(ValueError, match="model instance"):
            clone_database(source)

    def test_pending_deltas_are_carried_not_shared(self):
        source = build_database()
        source.insert("p", {"objid": [N_ROWS], "ra": [1.0]})
        source.delete("p", [0, N_ROWS])
        clone = clone_database(source)
        for name in ("objid", "ra"):
            ours, theirs = (db.catalog.column("p", name).bind(1) for db in (source, clone))
            assert theirs.tail.tolist() == ours.tail.tolist()
            assert theirs.hseqbase == ours.hseqbase == N_ROWS
            assert not np.shares_memory(theirs.tail, ours.tail)
        assert np.flatnonzero(~clone.catalog.table("p").live_mask).tolist() == [0, N_ROWS]
        assert clone.catalog.table("p").row_count == N_ROWS - 1


class TestRouterSurface:
    def test_fan_out_ddl_reaches_every_replica(self):
        with Router(Database(), 3) as router:
            router.create_table("t", {"x": "float64"})
            router.bulk_load("t", {"x": np.array([1.0, 2.0, 3.0])})
            router.enable_adaptive("t", "x", strategy="segmentation")
            for replica in router.replicas:
                assert replica.database.table_names() == ["t"]
                assert replica.database.bpm.is_managed("t", "x")
            router.disable_adaptive("t", "x")
            for replica in router.replicas:
                assert not replica.database.bpm.is_managed("t", "x")

    def test_replicas_do_not_share_loaded_arrays(self):
        with Router(Database(), 2) as router:
            router.create_table("t", {"x": "float64"})
            router.bulk_load("t", {"x": np.array([1.0, 2.0, 3.0])})
            first = router.replicas[0].database.catalog.column("t", "x").bind(0).tail
            second = router.replicas[1].database.catalog.column("t", "x").bind(0).tail
            assert not np.shares_memory(first, second)

    def test_routed_execution_answers_correctly(self):
        database = build_database()
        with Router(database, 2, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            serial = build_database()
            serial_prepared = serial.prepare_statement(SQL)
            for low, high in [(5.0, 15.0), (200.0, 220.0), (5.0, 15.0), (0.0, 360.0)]:
                got = router.execute_prepared(prepared, (low, high))
                want = serial.execute_prepared(serial_prepared, (low, high))
                assert sorted(got.columns["objid"].tolist()) == sorted(
                    want.columns["objid"].tolist()
                )

    def test_single_replica_router_works(self):
        with Router(build_database(), 1) as router:
            prepared = router.prepare_statement(SQL)
            result = router.execute_prepared(prepared, (10.0, 20.0))
            assert result.row_count >= 0
            assert router.router_stats()["routing"]["routed"] == 1


class TestRouting:
    def run_workload(self, router, prepared, pairs):
        for low, high in pairs:
            router.execute_prepared(prepared, (low, high))

    def test_clusters_stick_to_their_replicas_after_retune(self):
        # hot_query_threshold is raised above 1/n_modes: two equal modes sit
        # at ~50% share each, which would legitimately trip the 0.5 default.
        database = build_database()
        with Router(database, 2, hot_query_threshold=0.9, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            workload = multimodal_workload(120, DOMAIN, 0.005, n_modes=2, seed=4)
            self.run_workload(router, prepared, bounds_of(workload))
            report = router.retune()
            assert report["retuned"]
            # After retune, queries of one mode all route to one replica.
            mode_lows = workload.metadata["mode_lows"]
            targets = []
            for mode_low in mode_lows:
                routed = {
                    router.route(prepared, (mode_low + 0.05, mode_low + 0.2))
                    for _ in range(5)
                }
                assert len(routed) == 1
                targets.append(routed.pop())
            assert sorted(targets) == [0, 1]  # modes split across replicas

    def test_hot_cluster_spreads_across_all_replicas(self, monkeypatch):
        monkeypatch.setattr("repro.cluster.router.SHARE_WINDOW", 16)
        database = build_database()
        with Router(database, 3, hot_query_threshold=0.4, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            workload = multimodal_workload(90, DOMAIN, 0.005, n_modes=3, seed=8)
            self.run_workload(router, prepared, bounds_of(workload))
            router.retune()
            # Hammer one mode until its share exceeds the threshold: routing
            # must fall back to round-robin over every replica.
            mode_low = workload.metadata["mode_lows"][0]
            routed = set()
            for _ in range(60):
                routed.add(router.route(prepared, (mode_low + 0.05, mode_low + 0.2)))
            assert routed == {0, 1, 2}
            assert router.router_stats()["routing"]["hot_routes"] > 0

    def test_workload_aware_routing_survives_a_write(self):
        # Range-select classification is shape-only: pending deltas change how
        # an engine answers a wave, never whether the router sees its bounds.
        with Router(build_database(), 2, hot_query_threshold=0.9, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            router.insert(
                "p", {"objid": np.array([N_ROWS], dtype=np.int64), "ra": np.array([12.5])}
            )
            pairs = bounds_of(multimodal_workload(200, DOMAIN, 0.005, n_modes=2, seed=4))
            self.run_workload(router, prepared, pairs)
            report = router.retune()
            assert report["retuned"] and report["history"] == 200
            clustered_from = router.router_stats()["routing"]["unclustered_routes"]
            self.run_workload(router, prepared, pairs)
            assert router.router_stats()["routing"]["unclustered_routes"] == clustered_from
            result = router.execute_prepared(prepared, (12.0, 13.0))
            assert N_ROWS in result.columns["objid"].tolist()  # the inserted row

    def test_routing_is_a_function_of_seed_and_stream(self, monkeypatch):
        # No wall-clock time feeds a route: two fleets built alike and driven
        # by one stream through warm-up, retune, a hot phase that cools, and a
        # quarantine + rebuild take the same routes and end in the same state
        # (busy seconds and the qps derived from them aside).
        monkeypatch.setattr("repro.cluster.router.SHARE_WINDOW", 8)
        workload = multimodal_workload(96, DOMAIN, 0.005, n_modes=3, seed=8)
        warm = bounds_of(workload)
        hot_low = workload.metadata["mode_lows"][0]
        hot = [(hot_low + 0.05, hot_low + 0.2)] * 24  # interleaved traffic then cools it

        def drive(router, prepared, pairs):
            routes = []
            for pair in pairs:
                index = router.route(prepared, pair)
                router.replicas[index].run(router.execute_wave_on, index, [(prepared, pair)])
                routes.append(index)
            return routes

        def run():
            with Router(build_database(), 3, n_clusters=3, seed=0) as router:
                prepared = router.prepare_statement(SQL)
                routes = drive(router, prepared, warm)
                assert router.retune()["retuned"]
                routes += drive(router, prepared, hot + warm[:24])
                assert max(router.router_stats()["shares"]) < router.hot_query_threshold
                assert router.quarantine_replica(1)
                routes += drive(router, prepared, warm[24:60])
                assert router.rebuild_replica(1)["rebuilt"]
                routes += drive(router, prepared, warm[60:])
                stats = router.router_stats()
                for replica in stats["replicas"]:
                    del replica["busy_seconds"], replica["qps"]
                return routes, stats

        first_routes, first_stats = run()
        second_routes, second_stats = run()
        assert first_stats["routing"]["hot_routes"] > 0
        assert first_stats["health"]["quarantines"] == first_stats["health"]["rebuilds"] == 1
        assert first_routes == second_routes
        assert first_stats == second_stats


class TestConcurrentWaves:
    """Waves submitted to every replica's worker at once, as admission sends them."""

    RA = np.random.default_rng(7).uniform(*DOMAIN, size=N_ROWS)

    def routed(self, router, prepared, pairs, chunk=16):
        """Route each pair, queue waves of ``chunk`` per replica, then wait for all."""
        buckets = [[] for _ in range(router.n_replicas)]
        waves = []

        def flush(index):
            wave, buckets[index] = buckets[index], []
            future = router.replicas[index].submit(
                router.execute_wave_on, index, [(prepared, pair) for pair in wave]
            )
            waves.append((wave, future))

        for pair in pairs:
            index = router.route(prepared, pair)
            buckets[index].append(pair)
            if len(buckets[index]) == chunk:
                flush(index)
        for index in range(router.n_replicas):
            if buckets[index]:
                flush(index)
        for wave, future in waves:
            for (low, high), result in zip(wave, future.result(timeout=60), strict=True):
                want = np.flatnonzero((self.RA >= low) & (self.RA <= high)).tolist()
                assert sorted(result.columns["objid"].tolist()) == want

    @pytest.mark.parametrize("n_replicas", [2, 3, 4])
    def test_a_budgeted_fleet_answers_through_retune_and_quarantine(self, n_replicas):
        # A replication column whose budget holds about one mode's replicas,
        # four interleaved modes: replicas are built and evicted mid-stream.
        database = build_database(strategy="replication", storage_budget=N_ROWS * 8 + 12 * KB)
        with Router(database, n_replicas, n_clusters=4, seed=0) as router:
            prepared = router.prepare_statement(SQL)

            def phase(count, seed):
                workload = multimodal_workload(
                    count, DOMAIN, 0.002, n_modes=4, interleave=True, seed=seed
                )
                self.routed(router, prepared, bounds_of(workload))

            phase(128, 7)
            assert router.retune()["retuned"]
            phase(64, 8)
            assert router.quarantine_replica(n_replicas - 1)
            phase(64, 9)
            assert router.router_stats()["health"]["quarantines"] == 1


class TestRetune:
    def test_retune_without_history_is_a_noop(self):
        with Router(build_database(), 2) as router:
            report = router.retune()
            assert report["retuned"] is False

    def test_retune_lowers_modeled_cost_on_shifting_workload(self):
        # The Fig 11–16 shape: phases of locality (changing workload) over a
        # replication-strategy column.  Retune must strictly lower the
        # traffic-weighted what-if cost.
        database = build_database(strategy="replication", storage_budget=4_000 * KB)
        with Router(database, 2, n_clusters=4, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            workload = changing_workload(160, DOMAIN, 0.005, n_phases=4, seed=6)
            for low, high in bounds_of(workload):
                router.execute_prepared(prepared, (low, high))
            report = router.retune()
            assert report["retuned"]
            assert report["improved"]
            assert report["final_cost_bytes"] < report["initial_cost_bytes"]
            trajectory = report["cost_trajectory_bytes"]
            assert len(trajectory) >= 2
            assert min(trajectory) == report["final_cost_bytes"]

    def test_retune_lowers_modeled_cost_with_segmentation(self):
        database = build_database(strategy="segmentation")
        with Router(database, 2, n_clusters=4, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            workload = changing_workload(160, DOMAIN, 0.005, n_phases=4, seed=6)
            for low, high in bounds_of(workload):
                router.execute_prepared(prepared, (low, high))
            report = router.retune()
            assert report["retuned"] and report["improved"]

    def test_back_to_back_retunes_both_run_and_are_counted(self):
        # Nothing rations retune(): an operator who calls it twice gets two
        # passes; only the counter and the latest report are kept.
        with Router(build_database(), 2, n_clusters=4, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            workload = changing_workload(120, DOMAIN, 0.005, n_phases=4, seed=6)
            for low, high in bounds_of(workload):
                router.execute_prepared(prepared, (low, high))
            assert router.retune()["retuned"]
            second = router.retune()
            assert second["retuned"]
            stats = router.router_stats()
            assert stats["retunes"] == 2
            assert stats["last_retune"] == second
            assert "retune_history" not in stats and "retune_guard" not in stats

    def test_retune_clusters_the_most_recent_history(self):
        # The history is the last HISTORY routed queries, not the first: a
        # mode that arrives after HISTORY routes still gets a cluster of its own.
        from repro.cluster.router import HISTORY

        rng = np.random.default_rng(3)
        with Router(build_database(), 2, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            for low in rng.uniform(10.0, 12.0, size=HISTORY):
                router.route(prepared, (low, low + 1.0))
            for low in rng.uniform(300.0, 302.0, size=256):
                router.route(prepared, (low, low + 1.0))
            report = router.retune(n_clusters=2)
            assert report["history"] == HISTORY
            centers = [c["center"] for c in report["clustering"]["clusters"]]
            assert any(300.0 <= center <= 303.0 for center in centers), centers

    def test_retune_is_deterministic_for_fixed_seed(self):
        def run():
            database = build_database()
            with Router(database, 2, seed=0) as router:
                prepared = router.prepare_statement(SQL)
                workload = multimodal_workload(100, DOMAIN, 0.005, n_modes=2, seed=5)
                for low, high in bounds_of(workload):
                    router.execute_prepared(prepared, (low, high))
                return router.retune()["assignment"]

        assert run() == run()


class TestWhatIfBytes:
    def test_segmentation_counts_overlapping_segment_bytes(self):
        database = build_database()
        adaptive = database.adaptive_handle("p", "ra").adaptive
        full = what_if_bytes(adaptive, 0.0, 360.0)
        assert full == pytest.approx(adaptive.total_bytes)
        partial = what_if_bytes(adaptive, 10.0, 11.0)
        assert 0.0 < partial <= full

    def test_empty_range_costs_nothing(self):
        database = build_database()
        adaptive = database.adaptive_handle("p", "ra").adaptive
        assert what_if_bytes(adaptive, 50.0, 50.0) == 0.0

    def test_replication_cover_shrinks_after_specialization(self):
        database = build_database(strategy="replication", storage_budget=4_000 * KB)
        adaptive = database.adaptive_handle("p", "ra").adaptive
        before = what_if_bytes(adaptive, 100.0, 101.0)
        for _ in range(20):
            adaptive.select(100.0, 101.0)
        after = what_if_bytes(adaptive, 100.0, 101.0)
        assert after < before

    def test_replication_cost_is_the_oracle_cover_after_a_budgeted_stream(self):
        database = build_database(strategy="replication", storage_budget=N_ROWS * 8 + 8 * KB)
        adaptive = database.adaptive_handle("p", "ra").adaptive
        for query in multimodal_workload(300, DOMAIN, 0.01, n_modes=4, seed=3):
            adaptive.select(query.low, query.high)
        assert sum(record.segments_dropped for record in adaptive.history) > 0
        domain = adaptive.domain
        for low, high in [(10.0, 11.0), (100.0, 180.0), (-5.0, 3.0), (0.0, 400.0)]:
            query = ValueRange(max(low, domain.low), min(high, domain.high))
            oracle = minimal_cover(adaptive.tree.roots, query)
            assert what_if_bytes(adaptive, low, high) == sum(node.size_bytes for node in oracle)


class TestStatsMerge:
    def test_merge_cache_stats_sums_counters_and_recomputes_ratios(self):
        first = {
            "batch": {
                "waves": 2, "batched_queries": 10, "fallback_queries": 1,
                "wave_size": {"min": 3, "max": 7, "mean": 5.0},
                "wave_size_histogram": {"4-7": 2},
            },
            "total": {"hits": 8, "misses": 2, "evictions": 0, "invalidations": 1,
                      "size": 2, "capacity": 128, "hit_ratio": 0.8, "generation": 3},
        }
        second = {
            "batch": {
                "waves": 1, "batched_queries": 2, "fallback_queries": 0,
                "wave_size": {"min": 2, "max": 2, "mean": 2.0},
                "wave_size_histogram": {"1-3": 1},
            },
            "total": {"hits": 2, "misses": 8, "evictions": 1, "invalidations": 0,
                      "size": 3, "capacity": 128, "hit_ratio": 0.2, "generation": 3},
        }
        merged = merge_cache_stats([first, second])
        assert merged["total"]["hits"] == 10
        assert merged["total"]["misses"] == 10
        # Recomputed from merged counters — NOT the mean of 0.8 and 0.2
        # weighted equally by snapshot.
        assert merged["total"]["hit_ratio"] == pytest.approx(0.5)
        assert merged["total"]["capacity"] == 256
        assert merged["total"]["generation"] == 3
        assert merged["total"]["size"] == 5
        assert set(merged) == {"batch", "total", "replicas"}
        assert merged["batch"]["waves"] == 3
        assert merged["batch"]["wave_size"] == {"min": 2, "max": 7, "mean": 4.0}
        assert merged["batch"]["wave_size_histogram"] == {"4-7": 2, "1-3": 1}
        assert merged["replicas"] == [first, second]

    def test_merge_requires_at_least_one_snapshot(self):
        with pytest.raises(ValueError):
            merge_cache_stats([])

    def test_router_cache_stats_match_manual_merge(self):
        database = build_database()
        with Router(database, 2) as router:
            prepared = router.prepare_statement(SQL)
            for low in (10.0, 50.0, 90.0, 130.0):
                router.execute_prepared(prepared, (low, low + 5.0))
            merged = router.cache_stats()
            manual = merge_cache_stats(
                [replica.database.cache_stats() for replica in router.replicas]
            )
            assert merged["total"] == manual["total"]
            assert len(merged["replicas"]) == 2


class TestRouterStats:
    def test_router_stats_shape(self):
        database = build_database()
        with Router(database, 2, seed=0) as router:
            prepared = router.prepare_statement(SQL)
            workload = multimodal_workload(60, DOMAIN, 0.005, n_modes=2, seed=2)
            for low, high in bounds_of(workload):
                router.execute_prepared(prepared, (low, high))
            router.retune()
            stats = router.router_stats()
            assert len(stats["replicas"]) == 2
            for replica in stats["replicas"]:
                assert replica["queries_served"] > 0
                assert replica["qps"] > 0
                assert "p.ra" in replica["columns"]
                assert replica["columns"]["p.ra"]["segment_count"] >= 1
            assert stats["routing"]["routed"] == 60
            assert stats["retunes"] == 1
            assert stats["clusters"]["n_clusters"] == 2
            assert stats["last_retune"]["retuned"]

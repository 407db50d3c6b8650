"""Integration-style unit tests for the database façade."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.result import QueryRecord, QueryResult
from repro.storage.bat import BAT
from repro.util.units import KB


@pytest.fixture
def database() -> Database:
    rng = np.random.default_rng(101)
    n = 30_000
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64", "dec": "float64"})
    database.bulk_load(
        "p",
        {
            "objid": np.arange(n, dtype=np.int64),
            "ra": rng.uniform(0, 360, n),
            "dec": rng.uniform(-90, 90, n),
        },
    )
    return database


def brute(database: Database, low: float, high: float) -> np.ndarray:
    ra = database.catalog.column("p", "ra").bind(0).tail
    objid = database.catalog.column("p", "objid").bind(0).tail
    return objid[(ra >= low) & (ra <= high)]


class TestSchemaAndLoading:
    def test_table_names_lowercased(self, database):
        assert database.table_names() == ["p"]
        result = database.execute("SELECT OBJID FROM P WHERE RA BETWEEN 10 AND 20")
        assert isinstance(result, QueryResult)

    def test_drop_table_removes_adaptive_state(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation")
        database.drop_table("p")
        assert database.table_names() == []
        assert database.bpm.handles() == []

    def test_insert_and_delete_visible_through_sql(self, database):
        database.insert(
            "p",
            {
                "objid": np.array([10_000_000], dtype=np.int64),
                "ra": np.array([180.5]),
                "dec": np.array([0.0]),
            },
        )
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 180.49 AND 180.51")
        assert 10_000_000 in result.column("objid").tolist()
        existing = brute(database, 10, 11)
        database.delete("p", existing[:1])
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 11")
        assert existing[0] not in result.column("objid").tolist()


class TestTheShortPath:
    """Reads run the plan's lowering, with or without pending inserts and deletes."""

    SQL = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"

    @staticmethod
    def bats_built_by_a_warm_read(database, monkeypatch, prepared) -> int:
        for _ in range(3):
            database.execute_prepared(prepared, (10.0, 11.0))
        built = []
        init = BAT.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BAT, "__init__", counting)
        result = database.execute_prepared(prepared, (10.0, 11.0))
        monkeypatch.undo()
        assert result.cache_level == "prepared"  # a compiled plan ran, not a batch
        return len(built)

    @pytest.mark.parametrize("strategy, delta_free", [(None, 3), ("segmentation", 2)])
    def test_a_warm_read_allocates_the_same_bats(
        self, database, monkeypatch, strategy, delta_free
    ):
        if strategy is not None:
            database.enable_adaptive("p", "ra", strategy=strategy)
        prepared = database.prepare_statement(self.SQL)
        # Delta-free: the candidate list (two BATs for a plain uselect) and the
        # one gathered column — was 6 (plain) and 5 (segmentation) while the
        # full cascade ran here.
        assert self.bats_built_by_a_warm_read(database, monkeypatch, prepared) <= delta_free
        # Beside a pending insert and delete: one more, the live-rows step's list.
        database.insert("p", {"objid": [-1], "ra": [10.5], "dec": [0.0]})
        database.delete("p", [0])
        assert self.bats_built_by_a_warm_read(database, monkeypatch, prepared) <= delta_free + 1

    @pytest.mark.parametrize("strategy", [None, "segmentation", "replication", "unsegmented"])
    def test_the_benchmark_statement_lowers_to_a_handful_of_dispatches(self, database, strategy):
        if strategy is not None:
            database.enable_adaptive("p", "ra", strategy=strategy)
        prepared = database.prepare_statement(self.SQL)
        counts = prepared.compiled.opcode_counts
        assert sum(counts.values()) == 8
        assert not counts.keys() & {
            "algebra.kunion", "algebra.kdifference", "algebra.markT", "algebra.join",
            "bat.reverse", "bpm.newIterator", "bpm.hasMoreElements",
        }


    @pytest.mark.parametrize(
        "sql",
        ["SELECT * FROM p", "SELECT ra, objid FROM p LIMIT 7",
         "SELECT count(*), max(objid), min(dec) FROM p"],
        ids=["star", "limit", "aggregate"],
    )
    @pytest.mark.parametrize("strategy", [None, "segmentation", "replication", "unsegmented"])
    def test_a_select_without_where_starts_from_the_live_rows(self, database, strategy, sql):
        if strategy is not None:
            database.enable_adaptive("p", "ra", strategy=strategy)
        # A NaN in a live pending insert, another in a deleted one.
        database.insert("p", {"objid": [-1, -2], "ra": [np.nan, 5.0], "dec": [1.0, np.nan]})
        database.delete("p", [3, 30_001])
        counts = database.prepare_statement(sql).compiled.opcode_counts
        assert counts["sql.tid"] == 1
        assert not counts.keys() & {
            "sql.bind_dbat", "bat.mirror", "algebra.kunion", "algebra.kdifference",
        }
        live = np.ones(30_002, dtype=bool)
        live[[3, 30_001]] = False
        rows = {
            name: database.catalog.column("p", name).merge_deltas()[live]
            for name in ("objid", "ra", "dec")
        }
        result = database.execute(sql)
        if "count" in sql:
            assert result.scalars == {
                "count(*)": 30_000.0, "max(objid)": 29_999.0, "min(dec)": rows["dec"].min(),
            }
            return
        limit = 7 if "LIMIT" in sql else None
        assert result.column_names == (["ra", "objid"] if limit else ["objid", "ra", "dec"])
        for name in result.column_names:
            np.testing.assert_array_equal(result.column(name), rows[name][:limit])


class TestOneExecutionCore:
    """The four ``execute*`` doors are adapters over one executor."""

    TEXT = "SELECT objid FROM p WHERE ra BETWEEN 10 AND 11"

    @pytest.mark.parametrize(
        "door, entry",
        [
            ("execute", "run"),
            ("execute_prepared", "run"),
            ("execute_prepared_many", "run_wave"),
            ("execute_wave", "run_wave"),
        ],
    )
    def test_each_door_enters_the_executor_once(self, database, monkeypatch, door, entry):
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        pairs = [(10.0, 11.0), (20.0, 21.0), (30.0, 31.0)]
        calls = {
            "execute": lambda: database.execute(self.TEXT),
            "execute_prepared": lambda: database.execute_prepared(prepared, pairs[0]),
            "execute_prepared_many": lambda: database.execute_prepared_many(prepared, pairs),
            "execute_wave": lambda: database.execute_wave([(prepared, pair) for pair in pairs]),
        }
        entered = {"run": 0, "run_wave": 0}
        for name in entered:
            original = getattr(database._executor, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                entered[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(database._executor, name, counting)
        calls[door]()
        assert entered[entry] == 1
        if entry == "run":  # a wave of one is a straight call into the plan runner
            assert entered["run_wave"] == 0

    def test_removed_surface_stays_removed(self, database):
        import repro.engine
        from repro.engine import plan_cache

        for name in ("execute_readonly", "enable_adaptive_segmentation",
                     "enable_adaptive_replication", "interpreter"):
            assert not hasattr(database, name), name
        assert not hasattr(repro.engine, "Session")
        assert not hasattr(plan_cache, "BoundPlan") and not hasattr(plan_cache, "TextShapePlan")
        # One cache level: no shape level, no per-level counters.
        from repro.sql import parameters

        assert not hasattr(plan_cache, "CachedPlan") and not hasattr(repro.engine, "CachedPlan")
        assert not hasattr(parameters, "statement_shape")
        assert not hasattr(database.plan_cache, "level_stats")
        assert "levels" not in database.cache_stats()

    def test_the_fleet_keeps_no_option_nothing_sets(self, database):
        import inspect

        import repro.tuning
        from repro.cluster import EngineReplica, Router
        from repro.server import ReproServer

        def keywords(fn):
            return {
                name
                for name, parameter in inspect.signature(fn).parameters.items()
                if parameter.kind is parameter.KEYWORD_ONLY
            }

        assert keywords(Router.__init__) == {
            "n_clusters", "hot_query_threshold", "quarantine_after", "injector", "seed",
        }
        assert list(inspect.signature(Router.__init__).parameters)[:3] == [
            "self", "database", "n_replicas",
        ]
        assert keywords(Router.retune) == {"n_clusters", "max_iterations", "sample_per_cluster"}
        assert list(inspect.signature(EngineReplica.__init__).parameters) == [
            "self", "index", "database",
        ]
        # One knob table and one set_knobs: the registry and its factories are gone.
        for name in (
            "KnobRegistry", "KnobSpec", "database_knobs", "router_knobs",
            "admission_knobs", "server_knob_registry", "read_workers_spec", "_chain_apply",
        ):
            assert not hasattr(repro.tuning.knobs, name), name
        assert not hasattr(Database, "knob_registry")
        assert not hasattr(ReproServer, "knob_registry")
        from repro.server import AdmissionController

        # Every server is a fleet: admission takes the router, never an executor.
        assert list(inspect.signature(AdmissionController.__init__).parameters)[:2] == [
            "self", "router",
        ]
        assert "executor" not in inspect.signature(AdmissionController.__init__).parameters
        for name in ("knobs", "set_knobs", "knob_registry", "read_workers"):
            assert not hasattr(Router, name), name
        # No snapshot-reader pool: no read_workers knob, option, flag or stat,
        # and no snapshot door on any layer.
        from repro import core
        from repro.core import interval_index, strategy
        from repro.engine.executor import Executor
        from repro.optimizer.bpm import BatPartitionManager
        from repro.server.__main__ import _build_parser

        assert "read_workers" not in {knob.name for knob in repro.tuning.KNOBS}
        assert "read_workers" not in keywords(ReproServer.__init__)
        assert "--read-workers" not in _build_parser().format_help()
        assert not hasattr(database, "read_workers")
        for owner, names in (
            (Database, ("close",)),
            (Executor, ("close", "_read_snapshots", "_reader_executor")),
            (BatPartitionManager, ("pin", "select_pinned", "absorb")),
            (core.AdaptiveColumnBase, ("absorb_reads", "_absorb", "pin_snapshot",
                                       "select_readonly", "supports_snapshot_reads")),
            (core.SegmentedColumn, ("_absorb", "supports_snapshot_reads")),
            (core.UnsegmentedColumn, ("select_readonly", "supports_snapshot_reads")),
            (core.ReplicatedColumn, ("supports_snapshot_reads",)),
            (core.IntervalIndex, ("pin", "_snapshot", "_generation")),
            (core, ("IndexSnapshot",)),
            (interval_index, ("IndexSnapshot",)),
            (strategy, ("ReadObservations",)),
        ):
            for name in names:
                assert not hasattr(owner, name), (owner, name)
        replica = EngineReplica(0, database)
        try:
            assert "read_workers" not in replica.stats()
        finally:
            replica.close()


class TestQueryExecution:
    def test_projection_matches_brute_force(self, database):
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 120 AND 125")
        assert sorted(result.column("objid")) == sorted(brute(database, 120, 125))

    def test_multi_column_projection(self, database):
        result = database.execute("SELECT objid, dec FROM p WHERE ra BETWEEN 10 AND 12")
        assert result.column_names == ["objid", "dec"]
        assert result.row_count == brute(database, 10, 12).size

    def test_aggregate_query(self, database):
        result = database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 0 AND 180")
        ra = database.catalog.column("p", "ra").bind(0).tail
        assert result.scalar("count(*)") == int(((ra >= 0) & (ra <= 180)).sum())

    def test_unknown_column_in_result_lookup(self, database):
        from repro.api.exceptions import ProgrammingError

        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 0 AND 1")
        with pytest.raises(ProgrammingError):
            result.column("missing")
        with pytest.raises(ProgrammingError):
            result.scalar("count(*)")

    def test_an_unknown_predicate_column_is_refused_at_prepare(self, database):
        # Like an unknown projected column: at prepare, not on every execute.
        sql = "SELECT objid FROM p WHERE zz BETWEEN ? AND ?"
        with pytest.raises(KeyError, match="table 'p' has no column 'zz'"):
            database.prepare_statement(sql)
        with pytest.raises(KeyError, match="table 'p' has no column 'zz'"):
            database.explain(sql)
        assert len(database.plan_cache) == 0

    def test_query_history_is_recorded(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 0 AND 1")
        database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 0 AND 1")
        assert len(database.query_history) == 2
        assert database.query_history[0].total_seconds > 0

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_query_history_keeps_no_rows(self, database, adaptive):
        """The history records each query; the answer's arrays die with the caller's result."""
        if adaptive:
            database.enable_adaptive("p", "ra", strategy="segmentation")
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        result = database.execute_prepared(prepared, (10.0, 20.0))
        expected = np.sort(brute(database, 10.0, 20.0))
        assert np.array_equal(np.sort(result.column("objid")), expected)
        rows = weakref.ref(result.column("objid"))

        record = database.query_history[-1]
        assert isinstance(record, QueryRecord) and record == result.record()
        assert (record.sql, record.parameters, record.row_count) == (
            prepared.sql, (10.0, 20.0), expected.size
        )
        del result
        assert rows() is None

    @pytest.mark.parametrize("strategy", ["segmentation", "replication"])
    def test_a_dropped_database_is_freed_without_the_cycle_collector(self, strategy):
        """No reference cycle holds an engine: dropping it frees it and its columns."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            database = Database()
            database.create_table("p", {"objid": "int64", "ra": "float64"})
            database.bulk_load(
                "p", {"objid": np.arange(2_000, dtype=np.int64), "ra": np.linspace(0, 360, 2_000)}
            )
            database.enable_adaptive("p", "ra", strategy=strategy)
            prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
            wave = [(prepared, prepared.binding.bind(pair)) for pair in [(10, 20), (15, 40)]]
            results = database.execute_wave(wave)
            assert [result.cache_level for result in results] == ["batched", "batched"]
            engine, column = weakref.ref(database), weakref.ref(database.adaptive_handle("p", "ra"))
            del database
            assert engine() is None  # a plan held outside does not keep its engine
            del prepared, wave, results
            assert column() is None
        finally:
            if collecting:
                gc.enable()

    def test_explain_returns_plan_text(self, database):
        plan = database.explain("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        assert plan.startswith("function user.")
        assert "algebra.uselect" in plan

    @pytest.mark.parametrize("organisation", ["plain", "managed"])
    def test_explain_takes_the_text_a_client_prepares(self, database, organisation):
        """``?`` text explains (it raised SQLSyntaxError); Figure 1, then the lowering."""
        if organisation == "managed":
            database.enable_adaptive("p", "ra", strategy="segmentation")
        select = ["bpm.take", "bpm.select"] if organisation == "managed" else [
            "sql.bind", "algebra.uselect"
        ]
        sql = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        figure_1, marker, short = database.explain(sql).partition(
            "\n# lowering — what the executor runs\n"
        )
        assert marker and figure_1.count("algebra.kunion") == 4
        assert ("bpm.newIterator" in figure_1) == (organisation == "managed")
        # Statement numbers differ between two statements; the bodies do not,
        # iterator-block names included.
        prepared = database.prepare_statement(sql)
        assert figure_1.splitlines()[1:-1] == prepared.text.splitlines()[1:-1]
        callees = [line.split("(")[0].split()[-1] for line in short.splitlines()[1:-1]]
        assert callees == [
            *select, "sql.live", "sql.bind", "algebra.projection",
            "sql.resultSet", "sql.rsColumn", "sql.exportResult",
        ]
        named = database.explain("SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi")
        blocks = named.partition("\n# lowering — what the executor runs\n")[::2]
        for block, callee in zip(blocks, ["algebra.uselect", select[1]]):
            assert block.startswith("function user.s3_0(__p0, __p1):void;")
            assert f"{callee}(X_" in block and ", __p0, __p1, True, True);" in block

    def test_no_door_builds_figure1_and_a_plan_renders_its_text_once(
        self, database, monkeypatch
    ):
        """A cold prepare builds only the plan that runs; its text waits for a read."""
        import repro.engine.plan_cache as plan_cache
        from repro.cluster import Router
        from repro.mal.program import MALProgram
        from repro.optimizer.segment_optimizer import SegmentOptimizer
        from repro.sql.compiler import SQLCompiler

        def refuse(*args, **kwargs):
            raise AssertionError("a query door built Figure-1 text")

        database.enable_adaptive("p", "ra", strategy="segmentation")
        sql = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        pairs = [(float(low), low + 1.5) for low in range(10, 100, 10)]
        with Router(database, 2) as router:
            with monkeypatch.context() as patch:
                for owner, name in (
                    (SQLCompiler, "compile"), (SegmentOptimizer, "optimize"), (MALProgram, "render")
                ):
                    patch.setattr(owner, name, refuse)
                results = [database.execute("SELECT objid FROM p WHERE ra BETWEEN 10 AND 11.5")]
                prepared = database.prepare_statement(sql)
                results.append(database.execute_prepared(prepared, pairs[1]))
                results += database.execute_prepared_many(prepared, pairs[2:4])
                results += database.execute_wave([(prepared, pairs[4]), (prepared, pairs[5])])
                wave = [(prepared, pairs[6]), (prepared, pairs[7])]  # re-prepared on replica 1
                results += router.replicas[1].run(router.execute_wave_on, 1, wave)
            assert [result.cache_level for result in results] == [
                "cold", "prepared", *["batched"] * 6
            ]
            for result, (low, high) in zip(results, pairs):
                assert sorted(result.columns["objid"]) == sorted(brute(database, low, high))
        built = []
        original = plan_cache.figure1_text

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(plan_cache, "figure1_text", counting)
        assert prepared.text == prepared.text and len(built) == 1
        assert results[1].plan_text is prepared.text and len(built) == 1
        assert "bpm.newIterator" in prepared.text

    def test_a_plan_renders_the_layout_it_was_prepared_under(self, database):
        """A plan's text is built from what prepare captured, whenever it is read."""
        database.enable_adaptive("p", "ra", strategy="segmentation")
        plans = [
            database.prepare_statement(f"SELECT {column} FROM p WHERE ra BETWEEN ? AND ?")
            for column in ("objid", "dec")
        ]
        at_prepare = [
            database.explain(plan.sql).partition("\n# lowering")[0].splitlines()[1:-1]
            for plan in plans
        ]
        database.disable_adaptive("p", "ra")
        assert plans[0].text.splitlines()[1:-1] == at_prepare[0]  # first read
        database.drop_table("p")
        database.create_table("p", {"objid": "int64", "ra": "float64"})
        assert plans[1].text.splitlines()[1:-1] == at_prepare[1]  # first read
        for plan in plans:
            assert "barrier rseg_3 := bpm.newIterator(Y_1, __p0, __p1, True, True);" in plan.text

    def test_a_statement_is_compiled_once_and_runs_its_lowering(self, database, monkeypatch):
        import repro.engine.database as module

        compiled = []
        original = module.compile_program

        def counting(program, registry, **options):
            compiled.append(program)
            return original(program, registry, **options)

        monkeypatch.setattr(module, "compile_program", counting)
        prepared = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        assert len(compiled) == 1
        assert "algebra.kunion" not in compiled[0].render()
        database.insert("p", {"objid": np.array([-1]), "ra": np.array([15.0]),
                              "dec": np.array([0.0])})
        result = database.execute_prepared(prepared, (14.0, 16.0))
        assert len(compiled) == 1  # pending writes run the same plan
        assert -1 in result.columns["objid"].tolist()
        assert result.profile.opcode_counts["sql.live"] == 1

    def test_result_to_rows(self, database):
        result = database.execute("SELECT objid, ra FROM p WHERE ra BETWEEN 10 AND 10.5")
        rows = result.to_rows(limit=5)
        assert all(len(row) == 2 for row in rows)


class TestAdaptiveExecution:
    @pytest.mark.parametrize("strategy", ["segmentation", "replication", "unsegmented"])
    def test_a_column_holding_nan_is_refused_by_name(self, database, strategy):
        database.insert("p", {"objid": [-1], "ra": [np.nan], "dec": [0.0]})
        with pytest.raises(ValueError, match=r"p\.ra: the column holds NaN"):
            database.enable_adaptive("p", "ra", strategy=strategy)
        with pytest.raises(KeyError):
            database.adaptive_handle("p", "ra")
        assert database.execute("SELECT objid FROM p WHERE ra BETWEEN 33 AND 37").row_count

    def test_results_identical_across_strategies(self, database):
        plain = database.execute("SELECT objid FROM p WHERE ra BETWEEN 33 AND 37")
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=2 * KB, m_max=8 * KB)
        rng = np.random.default_rng(5)
        for _ in range(20):
            low = float(rng.uniform(0, 350))
            database.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {low + 4}")
        adapted = database.execute("SELECT objid FROM p WHERE ra BETWEEN 33 AND 37")
        assert sorted(adapted.column("objid")) == sorted(plain.column("objid"))

    def test_adaptation_time_reported(self, database):
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=2 * KB, m_max=8 * KB)
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 100 AND 200")
        assert result.adaptation_seconds >= 0.0
        stats = database.adaptive_handle("p", "ra").adaptive.history[-1]
        assert stats is not None and stats.result_count == result.row_count

    def test_result_seconds_are_the_seconds_of_the_records_the_query_caused(self, database):
        """With two adaptive columns on the table, each result reports its own share.

        A single run reports the seconds of exactly the records it appended;
        a batch member reports ``1 / members`` of its batch's records — the
        one record both strategies' batch kernels share.
        """
        database.enable_adaptive("p", "ra", strategy="segmentation", m_min=2 * KB, m_max=8 * KB)
        database.enable_adaptive("p", "dec", strategy="replication", m_min=2 * KB, m_max=8 * KB)
        histories = {
            name: database.adaptive_handle("p", name).adaptive.history for name in ("ra", "dec")
        }
        on_ra = database.prepare_statement("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        on_dec = database.prepare_statement("SELECT objid FROM p WHERE dec BETWEEN ? AND ?")
        on_both = database.prepare_statement(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ? AND dec BETWEEN ? AND ?"
        )
        pairs = [(10.0, 14.0), (40.0, 41.0), (12.0, 30.0), (-60.0, -50.0)]

        def check(run, expected_new):
            seen = {name: len(history) for name, history in histories.items()}
            results = run()
            new = {name: history.records[seen[name]:] for name, history in histories.items()}
            assert {name: len(records) for name, records in new.items()} == expected_new
            caused = [record for records in new.values() for record in records]
            assert sum(record.selection_seconds for record in caused) > 0.0
            for result in results:
                for phase in ("selection_seconds", "adaptation_seconds"):
                    total = sum(getattr(record, phase) for record in caused)
                    assert getattr(result, phase) == pytest.approx(
                        total / len(results), rel=1e-6, abs=1e-12
                    )

        check(lambda: [database.execute_prepared(on_ra, pairs[0])], {"ra": 1, "dec": 0})
        check(lambda: [database.execute("SELECT objid FROM p WHERE dec BETWEEN -5 AND 5")],
              {"ra": 0, "dec": 1})
        check(lambda: [database.execute_prepared(on_both, (*pairs[0], -45.0, 45.0))],
              {"ra": 1, "dec": 1})
        check(lambda: database.execute_prepared_many(on_ra, pairs), {"ra": 1, "dec": 0})
        check(lambda: database.execute_prepared_many(on_dec, pairs), {"ra": 0, "dec": 1})

    def test_replication_through_engine_is_correct(self, database):
        expected = database.execute("SELECT objid FROM p WHERE ra BETWEEN 250 AND 255")
        database.enable_adaptive("p", "ra", strategy="replication", m_min=2 * KB, m_max=8 * KB)
        rng = np.random.default_rng(9)
        for _ in range(20):
            low = float(rng.uniform(0, 350))
            database.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {low + 4}")
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 250 AND 255")
        assert sorted(result.column("objid")) == sorted(expected.column("objid"))

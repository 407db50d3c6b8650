"""Integration-style unit tests for the database façade."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.result import QueryResult
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


class TestDeltaFreePathIsUntouched:
    """A delta-free read runs the delta-free lowering; a pending write runs Figure 1 as before."""

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

    @pytest.mark.parametrize(
        "strategy, delta_free, pending", [(None, 3, 9), ("segmentation", 2, 8)]
    )
    def test_a_warm_read_allocates_the_same_bats(
        self, database, monkeypatch, strategy, delta_free, pending
    ):
        if strategy is not None:
            database.enable_adaptive("p", "ra", strategy=strategy)
        prepared = database.prepare_statement(self.SQL)
        # Delta-free: the candidate list (two BATs for a plain uselect) and the
        # one gathered column — was 6 (plain) and 5 (segmentation) while the
        # full cascade ran here.
        assert self.bats_built_by_a_warm_read(database, monkeypatch, prepared) <= delta_free
        database.insert("p", {"objid": [-1], "ra": [10.5], "dec": [0.0]})
        # Counted at the parent commit with the same pending insert: the full
        # variant is the code it was.
        assert self.bats_built_by_a_warm_read(database, monkeypatch, prepared) == pending

    @pytest.mark.parametrize("strategy", [None, "segmentation", "replication", "unsegmented"])
    def test_the_benchmark_statement_lowers_to_a_handful_of_dispatches(self, database, strategy):
        if strategy is not None:
            database.enable_adaptive("p", "ra", strategy=strategy)
        prepared = database.prepare_statement(self.SQL)
        counts = prepared.delta_free.opcode_counts([1] * len(prepared.delta_free))
        assert len(prepared.delta_free) <= 8 and prepared.delta_tables == ("p",)
        assert not counts.keys() & {
            "algebra.kunion", "algebra.kdifference", "algebra.markT", "algebra.join",
            "bat.reverse", "bpm.newIterator", "bpm.hasMoreElements",
        }
        assert len(prepared.compiled) == (25 if strategy is None else 31)


class TestOneExecutionCore:
    """The five ``execute*`` doors are adapters over one executor."""

    TEXT = "SELECT objid FROM p WHERE ra BETWEEN 10 AND 11"

    @pytest.mark.parametrize(
        "door, entry",
        [
            ("execute", "run"),
            ("execute_prepared", "run"),
            ("execute_prepared_many", "run_wave"),
            ("execute_many", "run_wave"),
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
            "execute_many": lambda: database.execute_many([self.TEXT, "SELECT count(*) FROM p"]),
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

        from repro.cluster import EngineReplica, Router
        from repro.tuning.knobs import server_knob_registry

        def keywords(fn):
            return {
                name
                for name, parameter in inspect.signature(fn).parameters.items()
                if parameter.kind is parameter.KEYWORD_ONLY
            }

        assert keywords(Router.__init__) == {
            "n_clusters", "hot_query_threshold", "ewma_alpha", "quarantine_after",
            "injector", "seed",
        }
        assert list(inspect.signature(Router.__init__).parameters)[:3] == [
            "self", "database", "n_replicas",
        ]
        assert keywords(Router.retune) == {"n_clusters", "max_iterations", "sample_per_cluster"}
        assert list(inspect.signature(EngineReplica.__init__).parameters) == [
            "self", "index", "database",
        ]
        assert list(inspect.signature(server_knob_registry).parameters) == ["engine", "admission"]
        for name in ("knobs", "set_knobs", "knob_registry", "read_workers"):
            assert not hasattr(Router, name), name
        database.read_workers = 3
        replica = EngineReplica(0, database)
        try:
            assert not hasattr(replica, "read_workers")
            assert replica.stats()["read_workers"] == 3  # the database's, not a copy
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

    def test_query_history_is_recorded(self, database):
        database.execute("SELECT objid FROM p WHERE ra BETWEEN 0 AND 1")
        database.execute("SELECT count(*) FROM p WHERE ra BETWEEN 0 AND 1")
        assert len(database.query_history) == 2
        assert database.query_history[0].total_seconds > 0

    def test_explain_returns_plan_text(self, database):
        plan = database.explain("SELECT objid FROM p WHERE ra BETWEEN 10 AND 20")
        assert plan.startswith("function user.")
        assert "algebra.uselect" in plan

    def test_explain_takes_the_text_a_client_prepares(self, database):
        """``?`` text explains (it raised SQLSyntaxError); both lowerings are shown."""
        sql = "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        figure_1, marker, delta_free = database.explain(sql).partition(
            "\n# delta-free lowering — runs while p has no pending deltas\n"
        )
        assert marker and figure_1.count("algebra.kunion") == 4
        # Statement counters differ between two compilations; the bodies do not.
        prepared = database.prepare_statement(sql)
        assert figure_1.splitlines()[1:-1] == prepared.text.splitlines()[1:-1]
        callees = [line.split("(")[0].split()[-1] for line in delta_free.splitlines()[1:-1]]
        assert callees == [
            "sql.bind", "algebra.uselect", "sql.bind", "algebra.projection",
            "sql.resultSet", "sql.rsColumn", "sql.exportResult",
        ]
        named = database.explain("SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi")
        assert named.count("uselect(X_3, __p0, __p1") == 2  # once in each lowering

    def test_result_to_rows(self, database):
        result = database.execute("SELECT objid, ra FROM p WHERE ra BETWEEN 10 AND 10.5")
        rows = result.to_rows(limit=5)
        assert all(len(row) == 2 for row in rows)


class TestAdaptiveExecution:
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
        stats = database.last_adaptive_stats("p", "ra")
        assert stats is not None and stats.result_count == result.row_count

    def test_result_seconds_are_the_seconds_of_the_records_the_query_caused(self, database):
        """With two adaptive columns on the table, each result reports its own share.

        A single run reports the seconds of exactly the records it appended;
        a batch member reports ``1 / members`` of its batch's records — one
        shared record from a batch kernel, N from the sequential fallback.
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
        check(lambda: database.execute_prepared_many(on_dec, pairs), {"ra": 0, "dec": len(pairs)})

        # Snapshot readers: the wave's one absorb record is its adaptation, in
        # equal shares; the selection side is each reader's own time.
        database.read_workers = 2
        wave = [(on_ra, on_ra.binding.bind((low, low + 3.0))) for low in range(0, 300, 20)]
        bpm = database.bpm
        ledger = (bpm.total_selection_seconds, bpm.total_adaptation_seconds)
        seen = len(histories["ra"])
        results = database.execute_wave(wave)
        (absorbed,) = histories["ra"].records[seen:]
        assert (absorbed.batch_size, absorbed.selection_seconds) == (len(wave), 0.0)
        assert absorbed.adaptation_seconds > 0.0
        assert bpm.total_selection_seconds == ledger[0]
        assert bpm.total_adaptation_seconds - ledger[1] == pytest.approx(
            absorbed.adaptation_seconds, rel=1e-6, abs=1e-12
        )
        for result in results:
            assert result.cache_level == "snapshot" and result.selection_seconds > 0.0
            assert result.adaptation_seconds == pytest.approx(
                absorbed.adaptation_seconds / len(wave), rel=1e-6, abs=1e-12
            )

    def test_replication_through_engine_is_correct(self, database):
        expected = database.execute("SELECT objid FROM p WHERE ra BETWEEN 250 AND 255")
        database.enable_adaptive("p", "ra", strategy="replication", m_min=2 * KB, m_max=8 * KB)
        rng = np.random.default_rng(9)
        for _ in range(20):
            low = float(rng.uniform(0, 350))
            database.execute(f"SELECT objid FROM p WHERE ra BETWEEN {low} AND {low + 4}")
        result = database.execute("SELECT objid FROM p WHERE ra BETWEEN 250 AND 255")
        assert sorted(result.column("objid")) == sorted(expected.column("objid"))

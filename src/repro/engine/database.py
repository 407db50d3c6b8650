"""The database façade: schema, loading, adaptive indexing, plan acquisition.

Execution itself lives in :mod:`repro.engine.executor`; the ``execute*``
methods here are thin doors that turn their input into *(prepared plan, bound
values)* members and hand them to the one wave executor.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro.core.models import SegmentationModel, model_from_name
from repro.engine.executor import Executor, Member, Origin
from repro.engine.plan_cache import (
    PlanCache,
    PreparedPlan,
    normalize_sql,
    range_template,
)
from repro.engine.profile import QueryProfile
from repro.engine.result import QueryResult
from repro.mal.compiled import compile_program
from repro.mal.modules import default_registry
from repro.optimizer.bpm import AdaptiveColumnHandle, BatPartitionManager
from repro.optimizer.delta_elision import lower_short
from repro.optimizer.pipeline import OptimizerPipeline
from repro.optimizer.rules import merge_duplicate_binds, remove_dead_code
from repro.optimizer.segment_optimizer import SegmentOptimizer
from repro.sql.ast import SelectStatement
from repro.sql.compiler import SQLCompiler
from repro.sql.parameters import (
    BindError,
    mask_literals,
    parameterize,
    prepared_binding,
)
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.tuning import knobs as tuning
from repro.util.units import KB


class Database:
    """A self-organizing column-store database instance.

    Typical usage::

        db = Database()
        db.create_table("p", {"objid": "int64", "ra": "float64"})
        db.bulk_load("p", {"objid": objids, "ra": ra_values})
        db.enable_adaptive("p", "ra", strategy="segmentation", model="apm",
                           m_min=1 * MB, m_max=5 * MB)
        result = db.execute("SELECT objid FROM p WHERE ra BETWEEN 205.1 AND 205.12")

    Every statement — literal text, a bound prepared handle, a batch, an
    admission wave — becomes a :class:`PreparedPlan` plus bound values and runs
    through one executor.  Range literals are lifted into parameters so the LRU
    plan cache keys on the statement's ``?`` text, and each text is lowered once
    into a slot-based :class:`~repro.mal.compiled.CompiledPlan` — on a warm query
    only the literal masking (text) or the bind validation (prepared) and the
    plan execution itself remain.  Waves route range selections on one
    adaptive column — overlapping and disjoint alike — through the vectorized
    batch executor (the strategy layer's ``select_many`` kernels), and every
    :class:`QueryResult` carries a per-stage :class:`QueryProfile`.
    """

    def __init__(self, *, plan_cache_size: int = 128) -> None:
        self.catalog = Catalog()
        self.bpm = BatPartitionManager(self.catalog)
        self.registry = default_registry()
        self.registry.register_module("bpm", self.bpm.mal_module())
        self.compiler = SQLCompiler(self.catalog)
        self.segment_optimizer = SegmentOptimizer(self.catalog, self.bpm)
        self.optimizer = OptimizerPipeline(
            [merge_duplicate_binds, self.segment_optimizer, remove_dead_code]
        )
        self.plan_cache = PlanCache(plan_cache_size)
        self.query_history: list[QueryResult] = []
        self._executor = Executor(self)
        self._adaptive_configs: dict[tuple[str, str], dict[str, Any]] = {}

    # -- schema and data -----------------------------------------------------

    def create_table(self, name: str, columns: dict[str, Any]) -> None:
        """Create a table from a ``{column: dtype}`` mapping."""
        self.catalog.create_table(name.lower(), {col.lower(): dtype for col, dtype in columns.items()})
        self.plan_cache.clear()

    def drop_table(self, name: str) -> None:
        """Drop a table and any adaptive state attached to its columns."""
        name = name.lower()
        for handle in list(self.bpm.handles()):
            if handle.table == name:
                self.bpm.disable(handle.table, handle.column)
        self._adaptive_configs = {
            key: value for key, value in self._adaptive_configs.items() if key[0] != name
        }
        self.catalog.drop_table(name)
        self.plan_cache.clear()

    def bulk_load(self, table: str, data: dict[str, np.ndarray]) -> None:
        """Load aligned arrays into a freshly created table."""
        self.catalog.table(table.lower()).bulk_load(
            {col.lower(): np.asarray(values) for col, values in data.items()}
        )

    def insert(self, table: str, data: dict[str, np.ndarray]) -> None:
        """Append rows through the insert-delta BATs."""
        self.catalog.table(table.lower()).insert(
            {col.lower(): np.asarray(values) for col, values in data.items()}
        )

    def delete(self, table: str, oids: np.ndarray) -> None:
        """Mark rows (by oid) as deleted."""
        self.catalog.table(table.lower()).delete(oids)

    def table_names(self) -> list[str]:
        """All tables in the catalog."""
        return self.catalog.table_names

    # -- adaptive indexing administration ------------------------------------------

    def enable_adaptive(
        self,
        table: str,
        column: str,
        *,
        strategy: str = "segmentation",
        model: str | SegmentationModel | None = "apm",
        m_min: float = 3 * KB,
        m_max: float = 12 * KB,
        seed: int | None = None,
        **options: Any,
    ) -> AdaptiveColumnHandle:
        """Hand a column to the BPM using any registered adaptive strategy.

        ``strategy`` is resolved through the registry in
        :mod:`repro.core.strategy` — built-ins are ``"segmentation"``,
        ``"replication"`` and ``"unsegmented"``; plugged-in strategies are
        available here with no engine changes.  Extra keyword options (e.g.
        ``storage_budget`` for replication) are forwarded to the strategy
        constructor when it accepts them.
        """
        table = table.lower()
        column = column.lower()
        stored = self.catalog.column(table, column)
        values = stored.merge_deltas()
        if values.size == 0:
            raise ValueError(
                f"cannot enable adaptive organisation on empty column {table}.{column}"
            )
        config: dict[str, Any] | None = None
        if isinstance(model, str) or model is None:
            config = {
                "strategy": strategy,
                "model": model,
                "m_min": m_min,
                "m_max": m_max,
                "seed": seed,
                **options,
            }
        if isinstance(model, str):
            model = model_from_name(model, m_min=m_min, m_max=m_max, seed=seed)
        handle = self.bpm.enable(table, column, strategy=strategy, model=model,
                                 values=values, **options)
        # Remember how the column was enabled so replica cloning
        # (repro.cluster) can rebuild an equivalent fresh strategy.  Model
        # *instances* are stateful and cannot be re-instantiated from here,
        # so only string-named models are recorded.
        if config is not None:
            self._adaptive_configs[(table, column)] = config
        else:
            self._adaptive_configs.pop((table, column), None)
        self.plan_cache.clear()
        return handle

    def disable_adaptive(self, table: str, column: str) -> None:
        """Return a column to plain positional organisation."""
        self.bpm.disable(table.lower(), column.lower())
        self._adaptive_configs.pop((table.lower(), column.lower()), None)
        self.plan_cache.clear()

    def adaptive_configs(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Enable-time configuration per managed ``(table, column)``.

        Only registrations made with a string-named model appear here;
        replica cloning needs these to rebuild an equivalent strategy on a
        fresh engine.
        """
        return {key: dict(value) for key, value in self._adaptive_configs.items()}

    def adaptive_handle(self, table: str, column: str) -> AdaptiveColumnHandle:
        """The BPM handle of an adaptive column (for inspection)."""
        return self.bpm.handle(table.lower(), column.lower())

    # -- knobs -----------------------------------------------------------------

    def knobs(self) -> dict[str, float]:
        """Current value of every knob on this engine (see :mod:`repro.tuning.knobs`).

        The APM bound pair appears once an APM column is registered, the
        storage budget once a replication column was given one; an engine
        with neither has no knobs.
        """
        return {row["name"]: row["value"] for row in tuning.knob_table(self)}

    def set_knobs(self, values: dict[str, Any]) -> dict[str, float]:
        """Validate and apply knob changes; returns the new knob vector.

        All-or-nothing (a rejected batch changes nothing) and answer-
        preserving: knobs steer *layout* decisions — split thresholds, the
        replica budget — never predicate semantics, so queries before and
        after a change return the same rows (property-tested in
        ``tests/tuning``).  Must run on the thread that owns the engine,
        like any other engine call.
        """
        return tuning.set_knobs(self, values)

    def cache_stats(self) -> dict[str, Any]:
        """Plan-cache observability: the cache's counters and the batch executor's.

        ``total`` carries the cache-wide hit/miss/eviction counters plus
        size, capacity, generation and the hit ratio; ``batch`` carries the
        vectorized batch executor's admission-efficiency counters (waves
        executed, a queries-per-wave histogram summary, and the
        fallback-to-sequential count).  Also surfaced on the client API via
        ``Connection.admin.cache_stats()``.
        """
        cache = self.plan_cache
        totals = cache.stats
        return {
            "batch": self._executor.batch_stats.summary(),
            "total": {
                "hits": totals.hits,
                "misses": totals.misses,
                "evictions": totals.evictions,
                "invalidations": totals.invalidations,
                "size": totals.size,
                "capacity": totals.capacity,
                "hit_ratio": totals.hit_ratio,
                "generation": cache.generation,
            },
        }

    # -- plan acquisition -----------------------------------------------------------

    def explain(self, sql: str) -> str:
        """The optimized MAL plan in concrete syntax (like ``EXPLAIN``).

        ``sql`` may carry placeholders — the text a client prepares.  The
        Figure-1 plan comes first; under one comment line, the lowering the
        executor runs.
        """
        optimized = self.optimizer.optimize(
            self.compiler.compile(parse(sql, placeholders=True))
        )
        return (
            f"{optimized.render()}\n# lowering — what the executor runs\n"
            f"{lower_short(optimized).render()}"
        )

    def _lower(
        self, text: str, statement: SelectStatement, profile: QueryProfile
    ) -> PreparedPlan:
        """Compile, optimize and lower ``statement``; cache the plan under ``text``.

        The one place a statement becomes a :class:`PreparedPlan`: the
        compiled lowering, the Figure-1 text, the binding template,
        environment slots and the range-select classification are derived
        here, once, so no later stage looks at the statement again.
        ``text`` is what the plan is known by — its cache key, and what a
        stale handle re-prepares from.
        """
        started = time.perf_counter()
        program = self.compiler.compile(statement)
        codegen_seconds = time.perf_counter() - started
        started = time.perf_counter()
        optimized = self.optimizer.optimize(program)
        lowered = lower_short(optimized)
        profile.optimize_seconds = time.perf_counter() - started
        started = time.perf_counter()
        compiled = compile_program(lowered, self.registry)
        profile.compile_seconds = codegen_seconds + time.perf_counter() - started
        binding = prepared_binding(statement)
        names = tuple(f"__p{index}" for index in range(binding.count))
        prepared = PreparedPlan(
            sql=text,
            compiled=compiled,
            text=optimized.render(),
            binding=binding,
            slots=compiled.parameter_slots(names),
            generation=self.plan_cache.generation,
            template=range_template(statement, self.catalog),
            cache=self.plan_cache,
        )
        self.plan_cache.put(text, prepared)
        return prepared

    def _resolve(self, sql: str) -> tuple[PreparedPlan, tuple[float, ...], Origin]:
        """Literal SQL text as *(prepared plan, bound values, origin)*.

        The literal-masked text is the cache key — the ``?`` text of the same
        statement, so a plan prepared through the client API answers here
        too.  A hit skips the parse (the warm case for workloads that vary
        only their range constants): the masked literals are the binding,
        validated by the plan's own :class:`BindingSpec`.  ``origin`` says
        how the result came about (``"masked"``: the text found its plan;
        ``"cold"``: the plan had to be compiled) and carries the profile of
        whatever work actually ran.
        """
        started = time.perf_counter()
        profile = QueryProfile(cold=False)
        normalized = normalize_sql(sql)
        masked, literals = mask_literals(normalized)
        prepared = self.plan_cache.get(masked)
        if prepared is not None:
            try:
                values = prepared.binding.bind(literals)
            except BindError:
                pass  # wrong arity or high < low: the parse below raises the usual error
            else:
                profile.parse_seconds = time.perf_counter() - started
                return prepared, values, (sql, "masked", profile)

        statement = parse(sql)
        shaped = parameterize(statement)
        key, values, prepared = masked, tuple(shaped.arguments.values()), None
        if len(literals) == len(values):
            statement = shaped.statement
        else:
            # The masker saw a literal the grammar does not lift (``and-5``):
            # the text is known by its full form and binds nothing — what
            # prepare_statement makes of the same text.
            key, values = normalized, ()
            prepared = self.plan_cache.get(key)
        profile.parse_seconds = time.perf_counter() - started
        profile.cold = prepared is None
        if prepared is None:
            prepared = self._lower(key, statement, profile)
        return prepared, values, (sql, "cold" if profile.cold else "masked", profile)

    def prepare_statement(self, sql: str) -> PreparedPlan:
        """Lower ``sql`` (with ``?``/``:name`` placeholders) into a bound-ready plan.

        The normalized text keys the cache, so repeated
        ``Cursor.execute(sql, params)`` calls cost one dictionary lookup — no
        parse, no literal masking.  A ``?`` statement whose placeholders cover
        every bound has the text the literal path masks its variants down to,
        so preparing a statement that :meth:`execute` already compiled lowers
        nothing, and the other way round.
        """
        normalized = normalize_sql(sql)
        prepared = self.plan_cache.get(normalized)
        if prepared is None:
            # Prepare-time work is not attributed to a query's profile.
            prepared = self._lower(
                normalized, parse(sql, placeholders=True), QueryProfile()
            )
        return prepared

    # -- the doors: binding/resolution over the one executor ---------------------------

    def execute(self, sql: str) -> QueryResult:
        """Run literal SQL: resolve the text to a plan and values, a wave of one.

        Cold: parse → compile → optimize → lower to a :class:`CompiledPlan`,
        cached under the masked text.  Warm: mask the literals, fetch the
        plan, bind — no parse, no recompilation, pooled execution context.
        """
        prepared, values, origin = self._resolve(sql)
        result = self._executor.run(prepared, values, origin)
        self.query_history.append(result)
        return result

    def execute_prepared(self, prepared: PreparedPlan, parameters: Any = ()) -> QueryResult:
        """Bind ``parameters`` into a prepared plan and execute it.

        The hot path of the client API: binding validates arity, numeric type
        and ``high >= low`` against the prepared template and seeds the
        compiled plan's slot environment directly — the query never touches
        SQL text again.  A handle this engine's cache would not run
        (:meth:`PlanCache.is_current`) is re-prepared transparently instead of
        serving a stale plan.
        """
        if not self.plan_cache.is_current(prepared):
            prepared = self.prepare_statement(prepared.sql)
        result = self._executor.run(prepared, prepared.binding.bind(parameters))
        self.query_history.append(result)
        return result

    def execute_prepared_many(
        self, prepared: PreparedPlan, seq_of_parameters: Sequence[Any]
    ) -> list[QueryResult]:
        """Run one prepared statement once per parameter binding, as one wave.

        All bindings are validated up front against the one prepared shape;
        a range select on an adaptive column of a delta-free table is then
        answered for every binding by one vectorized pass — overlapping *and*
        disjoint ranges alike (this is ``Cursor.executemany``).
        """
        if not self.plan_cache.is_current(prepared):
            prepared = self.prepare_statement(prepared.sql)
        bound = prepared.binding.bind_many(seq_of_parameters)
        return self._record(
            self._executor.run_wave([(prepared, values) for values in bound])
        )

    def execute_wave(
        self, requests: Sequence[Member], *, isolate: bool = False
    ) -> list[QueryResult | BaseException]:
        """One admission wave: bound statements from many clients, one pass.

        The server front-end's engine hook.  ``requests`` pairs each member's
        prepared plan with its already-validated bound values — the members
        may come from *different* prepared statements (and different client
        connections).  See :class:`~repro.engine.executor.Executor` for how a
        wave is bucketed (vectorized batches, single runs) and for the
        ``isolate=True`` contract: a poison member's exception comes back
        **in its slot** while the rest of the wave completes.
        """
        return self._record(self._executor.run_wave(list(requests), isolate=isolate))

    def _record(self, results: list) -> list:
        """Append a wave's delivered results to ``query_history``, in input order."""
        self.query_history.extend(
            result for result in results if not isinstance(result, BaseException)
        )
        return results

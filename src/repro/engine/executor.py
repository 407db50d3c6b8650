"""The wave executor: the one path from *(prepared plan, bound values)* to a result.

Every door of :class:`~repro.engine.database.Database` reduces its input to
members ``(PreparedPlan, values)`` and hands them here.  A wave is bucketed in
one pass — each member is *batchable* or *single* — the buckets run
(vectorized batch · the compiled-plan runner) and the results come back in
input order.  A single query is a wave of one and is answered by a straight
call into :meth:`Executor.run`.  Every adaptive selection goes through a BPM
door (``bpm.select`` in a plan, ``select_many``); a plan's result is built by
:meth:`Executor.run`, a batched member's by :func:`_result`.

Whether a statement is a batchable range select was decided when it was
prepared (:attr:`PreparedPlan.template`); whether its table has pending
deltas is read here, once per table per wave, and whether its column is
BPM-managed once per group, to bucket it.  A plain column has no batch pass:
its members run singly through the compiled-plan runner.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.engine.execution import ExecutionContext
from repro.engine.plan_cache import PreparedPlan, RangeTemplate
from repro.engine.profile import QueryProfile
from repro.engine.result import QueryResult
from repro.mal.operators import gather
from repro.storage.bat import BAT

if TYPE_CHECKING:
    from repro.engine.database import Database

#: One wave member: a prepared plan and its already-validated bound values.
Member = tuple[PreparedPlan, tuple[float, ...]]

#: What text resolution knows about a member: ``(sql text, cache level that
#: answered, profile carrying the plan-acquisition timings)``.
Origin = tuple[str, str, QueryProfile]

#: A range-select member as the batch pass sees it:
#: ``(position in the wave, sql text, bound values, its range template)``.
Item = tuple[int, str, tuple[float, ...], RangeTemplate]

#: Wave-size histogram buckets: label -> inclusive (low, high) member count.
_WAVE_BUCKETS: tuple[tuple[str, int, float], ...] = (
    ("2-4", 2, 4),
    ("5-16", 5, 16),
    ("17-64", 17, 64),
    ("65-256", 65, 256),
    ("257+", 257, math.inf),
)


@dataclass(slots=True)
class BatchStats:
    """Admission-efficiency counters of the vectorized batch executor.

    One *wave* is one vectorized pass answering every member of a same-column
    group.  A *fallback* is a wave member that ran through the compiled-plan
    runner on its own: not a range select, a group of one, a plain column,
    or deltas pending on its table.  Surfaced through
    :meth:`Database.cache_stats` so the server front-end's admission
    efficiency is observable without a profiler.
    """

    waves: int = 0
    batched_queries: int = 0
    fallback_queries: int = 0
    min_wave: int = 0
    max_wave: int = 0
    histogram: dict[str, int] = field(
        default_factory=lambda: {label: 0 for label, _, _ in _WAVE_BUCKETS}
    )

    def observe_wave(self, size: int) -> None:
        self.waves += 1
        self.batched_queries += size
        self.min_wave = size if self.min_wave == 0 else min(self.min_wave, size)
        self.max_wave = max(self.max_wave, size)
        for label, low, high in _WAVE_BUCKETS:
            if low <= size <= high:
                self.histogram[label] += 1
                break

    def summary(self) -> dict[str, Any]:
        """The ``batch`` section of :meth:`Database.cache_stats`."""
        return {
            "waves": self.waves,
            "batched_queries": self.batched_queries,
            "fallback_queries": self.fallback_queries,
            "wave_size": {
                "min": self.min_wave,
                "max": self.max_wave,
                "mean": self.batched_queries / self.waves if self.waves else 0.0,
            },
            "wave_size_histogram": dict(self.histogram),
        }


def _gather(
    template: RangeTemplate, oids: np.ndarray, bats: dict[tuple[str, str], BAT]
) -> dict[str, np.ndarray]:
    """The projected columns of ``oids`` from pre-resolved ``bats``."""
    table = template.table
    return {name: gather(bats[(table, name)], oids) for name in template.projected}


def _result(
    sql: str, values: tuple[float, ...], level: str, plan_text: str,
    columns: dict[str, np.ndarray], total_seconds: float, selection_seconds: float,
    adaptation_seconds: float,
) -> QueryResult:
    """A batched member's :class:`QueryResult`.

    No plan runs for it, so it gets a warm profile whose ``execute`` stage is
    its whole share of the wave.
    """
    profile = QueryProfile(cold=False)
    profile.execute_seconds = total_seconds
    # Positional, in QueryResult's field order: a keyword call costs twice as much.
    return QueryResult(
        sql, values, columns, {}, plan_text, total_seconds, selection_seconds,
        adaptation_seconds, 0.0, level, profile,
    )


class Executor:
    """Runs prepared plans for one :class:`Database`: singly, or as a wave.

    Everything runs on the calling thread, so a server that funnels all
    waves through one worker thread preserves the engine's single-threaded
    adaptation invariant.  The executor owns the execution-context pool and
    the batch counters; recording results in ``query_history`` stays with
    the database's doors.
    """

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.batch_stats = BatchStats()
        self._contexts: list[ExecutionContext] = []

    # -- the one compiled-plan runner -------------------------------------------

    def run(
        self, prepared: PreparedPlan, values: tuple[float, ...], origin: Origin | None = None
    ) -> QueryResult:
        """Execute one prepared plan with already-validated bound values.

        ``origin`` is given when the member was resolved from SQL text: the
        result then carries that text, the cache level that answered it and
        the profile that timed its plan acquisition.  Contexts are pooled, so
        the warm path allocates no per-query containers of its own.
        ``plan_text`` is the paper's plan; ``opcode_counts`` say what ran,
        the plan's lowering.
        """
        if origin is None:
            started = time.perf_counter()
            sql, level, profile = prepared.sql, "prepared", QueryProfile(cold=False)
        else:
            sql, level, profile = origin
            started = time.perf_counter() - profile.plan_seconds
        contexts = self._contexts
        context = contexts.pop() if contexts else ExecutionContext(self.database.catalog)
        bpm = self.database.bpm
        selection_before = bpm.total_selection_seconds
        adaptation_before = bpm.total_adaptation_seconds
        compiled = profile.plan = prepared.compiled
        execute_started = time.perf_counter()
        compiled.execute_bound(context, prepared.slots, values)
        profile.execute_seconds = time.perf_counter() - execute_started
        columns = context.exported_columns()
        scalars = context.scalars
        # Positional, in QueryResult's field order: a keyword call costs twice as much.
        result = QueryResult(
            sql, values, columns, dict(scalars) if scalars else {}, prepared.text,
            time.perf_counter() - started,
            bpm.total_selection_seconds - selection_before,
            bpm.total_adaptation_seconds - adaptation_before,
            execute_started - started, level, profile,
        )
        if len(contexts) < 4:
            context.reset()
            contexts.append(context)
        return result

    # -- waves --------------------------------------------------------------------

    def run_wave(
        self, members: Sequence[Member], *, isolate: bool = False
    ) -> list[QueryResult | BaseException]:
        """Answer every member; results come back in input order.

        With ``isolate=True`` a poison member no longer fails the wave as one
        unit: if the whole-wave attempt raises, the wave re-runs member by
        member and each failing member's exception is returned **in its
        slot** while the rest complete normally.  Re-execution is safe —
        waves carry bound selects, which are idempotent above adaptation (a
        double adaptation pass is at worst wasted reorganization work).  An
        exception escaping ``isolate=True`` is therefore infrastructure-level.
        """
        try:
            return self._wave(members)
        except Exception:  # noqa: BLE001 - replayed per member below
            if not isolate:
                raise
            out: list[QueryResult | BaseException] = []
            for position in range(len(members)):
                try:
                    out.extend(self._wave(members[position : position + 1]))
                except Exception as exc:  # noqa: BLE001 - isolated to its slot
                    out.append(exc)
            return out

    def _wave(self, members: Sequence[Member]) -> list[QueryResult | BaseException]:
        """One pass: refresh stale plans, bucket every member, run the buckets.

        A plan runs only under the cache, and the generation, that lowered
        it (:meth:`PlanCache.is_current`); any other plan — an older
        generation, another replica's cache — is re-prepared from its text
        here, once per wave, so under ``isolate=True`` a member that cannot
        be re-prepared fails alone.  A member with a range template on a
        delta-free table joins its ``(table, column)`` group.  A group of two
        or more on a BPM-managed column is one vectorized batch pass, run
        where its first member stands; everything else — aggregates, groups
        of one, a plain column, tables with pending deltas — goes through
        :meth:`run` in input order.
        """
        database = self.database
        is_current = database.plan_cache.is_current
        plans: list[PreparedPlan] = []
        refreshed: dict[int, PreparedPlan] = {}
        delta_free: dict[str, bool] = {}
        groups: dict[tuple[str, str], list[int]] = {}
        for position, (prepared, _) in enumerate(members):
            if not is_current(prepared):
                current = refreshed.get(id(prepared))
                if current is None:
                    current = database.prepare_statement(prepared.sql)
                    refreshed[id(prepared)] = current
                prepared = current
            plans.append(prepared)
            template = prepared.template
            if template is not None:
                free = delta_free.get(template.table)
                if free is None:
                    free = not database.catalog.table(template.table).has_deltas
                    delta_free[template.table] = free
                if free:
                    groups.setdefault((template.table, template.column), []).append(position)

        def item(position: int) -> Item:
            return position, plans[position].sql, members[position][1], plans[position].template

        is_managed = database.bpm.is_managed
        batch_at: dict[int, tuple[str, str]] = {}  # first member's position -> its group
        grouped: set[int] = set()
        for key, positions in groups.items():
            if len(positions) >= 2 and is_managed(*key):
                batch_at[positions[0]] = key
                grouped.update(positions)

        slots: list[QueryResult | BaseException | None] = [None] * len(members)
        for position, (_, values) in enumerate(members):
            key = batch_at.get(position)
            if key is not None:
                batch = self._batch(*key, [item(at) for at in groups[key]])
                for at, result in zip(groups[key], batch):
                    slots[at] = result
            elif position not in grouped:
                self.batch_stats.fallback_queries += 1
                slots[position] = self.run(plans[position], values)
        return slots  # type: ignore[return-value]

    def _bats(self, items: list[Item]) -> dict[tuple[str, str], BAT]:
        """Every projected column's persistent BAT, resolved on this thread."""
        column = self.database.catalog.column
        bats: dict[tuple[str, str], BAT] = {}
        for _, _, _, template in items:
            for name in template.projected:
                if (template.table, name) not in bats:
                    bats[(template.table, name)] = column(template.table, name).bind(0)
        return bats

    # -- the vectorized batch pass ------------------------------------------------

    def _batch(self, table: str, column: str, items: list[Item]) -> list[QueryResult]:
        """One vectorized pass over the managed column ``table.column``.

        The batch is answered through ``bpm.select_many`` — vectorized
        segment routing and probe kernels for the strategies that support
        batching, the sequential fallback otherwise — with adaptation
        piggy-backed on the batch.
        """
        started = time.perf_counter()
        self.batch_stats.observe_wave(len(items))
        bounds = [template.bind(values) for _, _, values, template in items]
        bpm = self.database.bpm
        selection_before = bpm.total_selection_seconds
        adaptation_before = bpm.total_adaptation_seconds
        extracted = [selection.oids for selection in bpm.select_many(table, column, bounds)]
        selection_seconds = bpm.total_selection_seconds - selection_before
        adaptation_seconds = bpm.total_adaptation_seconds - adaptation_before
        plan_text = f"# batched select_many on {table}.{column} ({len(items)} queries)"

        bats = self._bats(items)
        columns = [
            _gather(template, oids, bats) for (_, _, _, template), oids in zip(items, extracted)
        ]
        share = 1.0 / len(items)
        total_share = (time.perf_counter() - started) * share
        return [
            _result(
                sql, values, "batched", plan_text, member_columns, total_share,
                selection_seconds * share, adaptation_seconds * share,
            )
            for (_, sql, values, _), member_columns in zip(items, columns)
        ]

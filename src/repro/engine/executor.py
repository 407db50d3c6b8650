"""The wave executor: the one path from *(prepared plan, bound values)* to a result.

Every door of :class:`~repro.engine.database.Database` reduces its input to
members ``(PreparedPlan, values)`` and hands them here.  A wave is bucketed in
one pass — each member is *snapshot-readable*, *batchable* or *single* — the
buckets run (reader pool · vectorized batch · the compiled-plan runner) and
the results come back in input order.  A single query is a wave of one and is
answered by a straight call into :meth:`Executor.run`.  Every adaptive
selection goes through a BPM door (``bpm.select`` in a plan, ``select_many``,
``pin`` / ``select_pinned`` / ``absorb``); every result is built by :func:`_result`.

Whether a statement is a batchable range select was decided when it was
prepared (:attr:`PreparedPlan.template`); whether its table has pending deltas
is read here — once per table per wave to bucket it, once per single run to
pick the plan's compiled variant (full cascade or delta-free lowering).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.engine.execution import ExecutionContext
from repro.engine.plan_cache import PreparedPlan, RangeTemplate
from repro.engine.profile import QueryProfile
from repro.engine.result import QueryResult
from repro.mal.operators import gather, select
from repro.storage.bat import BAT
from repro.util.half_open import half_open

if TYPE_CHECKING:
    from repro.engine.database import Database

#: One wave member: a prepared plan and its already-validated bound values.
Member = tuple[PreparedPlan, tuple[float, ...]]

#: What text resolution knows about a member: ``(sql text, cache level that
#: answered, profile carrying the plan-acquisition timings)``.
Origin = tuple[str, str, QueryProfile]

#: A range-select member as the batch and reader passes see it:
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
    runner on its own: not a range select, a group of one, or deltas pending
    on its table.  Surfaced through :meth:`Database.cache_stats` so the server
    front-end's admission efficiency is observable without a profiler.
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


def overlap_clusters(ranges: list[tuple[float, float]]) -> list[list[int]]:
    """Split half-open ``[low, high)`` ranges into strictly-overlapping clusters.

    The plain-column batch pass scans each cluster's envelope once: the
    envelope of a cluster equals its union, so the scan reads nothing no
    member asked for.  Only ranges that genuinely *share values* are merged:
    ranges that merely touch — ``low == envelope_high``, including bounds one
    ``math.nextafter`` apart, as an inclusive bound and the adjacent exclusive
    bound produce — stay in separate clusters.  Returns clusters of positions
    into ``ranges``.
    """
    order = sorted(range(len(ranges)), key=lambda i: ranges[i])
    clusters: list[list[int]] = []
    envelope_high = -np.inf
    for index in order:
        low, high = ranges[index]
        if clusters and low < envelope_high:
            clusters[-1].append(index)
            envelope_high = max(envelope_high, high)
        else:
            clusters.append([index])
            envelope_high = high
    return clusters


def _scan_clusters(
    persistent: BAT, bounds: list[tuple[float, float, bool, bool]]
) -> tuple[list[np.ndarray], int]:
    """Each member's oids in oid order, and the count of overlap clusters scanned once."""
    clusters = overlap_clusters([half_open(*bound) for bound in bounds])
    extracted: list[Any] = [None] * len(bounds)  # every member is in one cluster
    for cluster in clusters:
        # One pass over the column; the members then select from the envelope only.
        envelope = select(
            persistent,
            min(bounds[i][0] for i in cluster),
            max(bounds[i][1] for i in cluster),
            include_high=True,
        )
        for index in cluster:
            low, high, include_low, include_high = bounds[index]
            extracted[index] = select(
                envelope, low, high, include_low=include_low, include_high=include_high
            ).head
    return extracted, len(clusters)


def _gather(
    template: RangeTemplate, oids: np.ndarray, bats: dict[tuple[str, str], BAT]
) -> dict[str, np.ndarray]:
    """The projected columns of ``oids`` from pre-resolved ``bats`` (thread safe)."""
    table = template.table
    return {name: gather(bats[(table, name)], oids) for name in template.projected}


def _result(
    sql: str, values: tuple[float, ...], level: str, plan_text: str,
    columns: dict[str, np.ndarray], *, total_seconds: float, selection_seconds: float,
    adaptation_seconds: float, optimizer_seconds: float = 0.0,
    scalars: dict[str, float] | None = None, profile: QueryProfile | None = None,
) -> QueryResult:
    """The one place a :class:`QueryResult` is built.

    Without a plan's ``profile`` (batched, snapshot) the result gets a warm
    one whose ``execute`` stage is its whole share of the wave.
    """
    if profile is None:
        profile = QueryProfile(cold=False)
        profile.execute_seconds = total_seconds
    # Positional, in QueryResult's field order: a keyword call costs twice as much.
    return QueryResult(
        sql, values, columns, {} if scalars is None else scalars, plan_text, total_seconds,
        selection_seconds, adaptation_seconds, optimizer_seconds, level, profile,
    )


class Executor:
    """Runs prepared plans for one :class:`Database`: singly, or as a wave.

    Everything except the snapshot readers runs on the calling thread, so a
    server that funnels all waves through one worker thread preserves the
    engine's single-threaded adaptation invariant.  The executor owns the
    execution-context pool, the batch counters and the reader pool; recording
    results in ``query_history`` stays with the database's doors.
    """

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.batch_stats = BatchStats()
        self._contexts: list[ExecutionContext] = []
        self._reader_pool: ThreadPoolExecutor | None = None
        self._reader_pool_size = 0

    # -- the one compiled-plan runner -------------------------------------------

    def run(
        self, prepared: PreparedPlan, values: tuple[float, ...], origin: Origin | None = None
    ) -> QueryResult:
        """Execute one prepared plan with already-validated bound values.

        ``origin`` is given when the member was resolved from SQL text: the
        result then carries that text, the cache level that answered it and
        the profile that timed its plan acquisition.  Contexts are pooled, so
        the warm path allocates no per-query containers of its own.  The
        delta-free variant runs while the statement's tables have no deltas;
        ``plan_text`` stays the paper's plan, ``opcode_counts`` say what ran.
        """
        if origin is None:
            started = time.perf_counter()
            sql = prepared.sql
            level = "prepared"
            profile = QueryProfile(cold=False)
        else:
            sql, level, profile = origin
            started = time.perf_counter() - profile.plan_seconds
        database = self.database
        compiled, slots = prepared.compiled, prepared.slots
        if self._delta_free(prepared.delta_tables):
            compiled, slots = prepared.delta_free, prepared.delta_free_slots
        contexts = self._contexts
        context = contexts.pop() if contexts else ExecutionContext(catalog=database.catalog)
        bpm = database.bpm
        selection_before = bpm.total_selection_seconds
        adaptation_before = bpm.total_adaptation_seconds
        counters = compiled.new_counters()
        execute_started = time.perf_counter()
        compiled.execute_bound(context, slots, values, counters)
        profile.execute_seconds = time.perf_counter() - execute_started
        profile.attach_counters(compiled, counters)

        result = _result(
            sql, values, level, prepared.text, context.exported_columns(),
            total_seconds=time.perf_counter() - started,
            selection_seconds=bpm.total_selection_seconds - selection_before,
            adaptation_seconds=bpm.total_adaptation_seconds - adaptation_before,
            optimizer_seconds=execute_started - started,
            scalars=dict(context.scalars), profile=profile,
        )
        if len(contexts) < 4:
            context.reset()
            contexts.append(context)
        return result

    def _delta_free(self, tables: tuple[str, ...]) -> bool:
        """True while none of ``tables`` has a pending insert, update or delete.

        Picks a statement's compiled variant and lets wave members batch.
        """
        table = self.database.catalog.table
        for name in tables:
            if table(name).has_deltas:
                return False
        return True

    # -- waves --------------------------------------------------------------------

    def run_wave(
        self,
        members: Sequence[Member],
        *,
        isolate: bool = False,
        origins: Sequence[Origin] | None = None,
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
            return self._wave(members, origins)
        except Exception:  # noqa: BLE001 - replayed per member below
            if not isolate:
                raise
            out: list[QueryResult | BaseException] = []
            for position in range(len(members)):
                try:
                    out.extend(
                        self._wave(
                            members[position : position + 1],
                            origins[position : position + 1] if origins else None,
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - isolated to its slot
                    out.append(exc)
            return out

    def _wave(
        self, members: Sequence[Member], origins: Sequence[Origin] | None
    ) -> list[QueryResult | BaseException]:
        """One pass: refresh stale plans, bucket every member, run the buckets.

        A member with a range template on a delta-free table joins its
        ``(table, column)`` group.  With ``read_workers > 1`` and more than
        one member, each group whose column the BPM can pin a snapshot of is
        answered concurrently against that snapshot; any other group of two
        or more is one vectorized batch pass, run where its first member
        stands; everything else — aggregates, groups of one, tables with
        pending deltas (they take the full Figure-1 cascade) — goes through
        :meth:`run` in input order.
        """
        database = self.database
        generation = database.plan_cache.generation
        plans: list[PreparedPlan] = []
        refreshed: dict[int, PreparedPlan] = {}
        delta_free: dict[str, bool] = {}
        groups: dict[tuple[str, str], list[int]] = {}
        for position, (prepared, _) in enumerate(members):
            if prepared.generation != generation:
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
                    free = self._delta_free((template.table,))
                    delta_free[template.table] = free
                if free:
                    groups.setdefault((template.table, template.column), []).append(position)

        def item(position: int) -> Item:
            sql = origins[position][0] if origins else plans[position].sql
            return position, sql, members[position][1], plans[position].template

        workers = database.read_workers
        fan_out = workers > 1 and len(members) > 1
        readable: list[tuple[Any, list[Item]]] = []  # (BPM pin, its column's members)
        batch_at: dict[int, tuple[str, str]] = {}  # first member's position -> its group
        grouped: set[int] = set()
        for key, positions in groups.items():
            pinned = database.bpm.pin(*key) if fan_out else None
            if pinned is not None:
                readable.append((pinned, [item(position) for position in positions]))
            elif len(positions) >= 2:
                batch_at[positions[0]] = key
            else:
                continue
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
                slots[position] = self.run(
                    plans[position], values, origins[position] if origins else None
                )
        if readable:
            self._read_snapshots(readable, workers, slots)
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

    # -- snapshot reads -----------------------------------------------------------

    def _read_snapshots(self, readable: list, workers: int, slots: list) -> None:
        """Fan the pinned columns' members across the reader pool; fill their ``slots``.

        Every projected column's BAT is resolved on this thread, so readers
        touch no shared mutable state (numpy probe/gather kernels release the
        GIL).  After the readers join, each pinned column absorbs its reads
        through the BPM — adaptation stays on this thread, once per column per
        wave — and each member carries an equal share of that absorb's
        seconds.  A member's exception is raised only after every reader has
        joined.
        """
        bpm = self.database.bpm
        reads = [(pinned, item) for pinned, items in readable for item in items]
        bats = self._bats([item for _, item in reads])

        def run_chunk(chunk: list) -> list[tuple[int, Any]]:
            out: list[tuple[int, Any]] = []
            for pinned, (position, _, values, template) in chunk:
                started = time.perf_counter()
                try:
                    oids = bpm.select_pinned(pinned, *template.bind(values))
                    selected = time.perf_counter() - started
                    columns = _gather(template, oids, bats)
                    out.append((position, (columns, selected, time.perf_counter() - started)))
                except Exception as exc:  # noqa: BLE001 - raised after the join
                    out.append((position, exc))
            return out

        chunk_count = min(workers, len(reads))
        pool = self._reader_executor(workers)
        futures = [
            pool.submit(run_chunk, reads[offset::chunk_count]) for offset in range(chunk_count)
        ]
        outcomes: dict[int, Any] = {}
        for future in futures:
            outcomes.update(future.result())
        for pinned, items in readable:
            before = bpm.total_adaptation_seconds
            bpm.absorb(pinned)
            share = (bpm.total_adaptation_seconds - before) / len(items)
            for position, sql, values, template in items:
                outcome = outcomes[position]
                if not isinstance(outcome, BaseException):
                    columns, selected, total = outcome
                    outcome = _result(
                        sql, values, "snapshot",
                        f"# snapshot read on {template.table}.{template.column}", columns,
                        total_seconds=total + share, selection_seconds=selected,
                        adaptation_seconds=share,
                    )
                slots[position] = outcome
        for _, (position, _, _, _) in reads:
            if isinstance(slots[position], BaseException):
                raise slots[position]

    def _reader_executor(self, workers: int) -> ThreadPoolExecutor:
        """The lazily built (and grown on demand) snapshot-reader pool."""
        if self._reader_pool is None or self._reader_pool_size < workers:
            if self._reader_pool is not None:
                self._reader_pool.shutdown(wait=False)
            self._reader_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-reader"
            )
            self._reader_pool_size = workers
        return self._reader_pool

    # -- the vectorized batch pass ------------------------------------------------

    def _batch(self, table: str, column: str, items: list[Item]) -> list[QueryResult]:
        """One vectorized pass over ``table.column`` answering every member.

        An adaptive (BPM-managed) column answers the batch through
        ``bpm.select_many`` — vectorized segment routing and probe kernels for
        the strategies that support batching, the sequential fallback
        otherwise — with adaptation piggy-backed on the batch.  A plain column
        is scanned once per overlap cluster of the members' ranges; each
        member's rows come back in oid order, as from :meth:`run`.
        """
        started = time.perf_counter()
        database = self.database
        self.batch_stats.observe_wave(len(items))
        bounds = [template.bind(values) for _, _, values, template in items]

        bpm = database.bpm
        if bpm.is_managed(table, column):
            selection_before = bpm.total_selection_seconds
            adaptation_before = bpm.total_adaptation_seconds
            extracted = [selection.oids for selection in bpm.select_many(table, column, bounds)]
            selection_seconds = bpm.total_selection_seconds - selection_before
            adaptation_seconds = bpm.total_adaptation_seconds - adaptation_before
            plan_text = f"# batched select_many on {table}.{column} ({len(items)} queries)"
        else:
            scan_started = time.perf_counter()
            persistent = database.catalog.column(table, column).bind(0)
            extracted, clusters = _scan_clusters(persistent, bounds)
            selection_seconds, adaptation_seconds = time.perf_counter() - scan_started, 0.0
            plan_text = (
                f"# batched shared scan of {table}.{column} "
                f"({len(items)} queries, one scan per overlap cluster: {clusters})"
            )

        bats = self._bats(items)
        columns = [
            _gather(template, oids, bats) for (_, _, _, template), oids in zip(items, extracted)
        ]
        share = 1.0 / len(items)
        total_share = (time.perf_counter() - started) * share
        return [
            _result(
                sql, values, "batched", plan_text, member_columns, total_seconds=total_share,
                selection_seconds=selection_seconds * share,
                adaptation_seconds=adaptation_seconds * share,
            )
            for (_, sql, values, _), member_columns in zip(items, columns)
        ]

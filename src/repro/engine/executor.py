"""The wave executor: the one path from *(prepared plan, bound values)* to a result.

Every door of :class:`~repro.engine.database.Database` reduces its input to
members ``(PreparedPlan, values)`` and hands them here.  A wave is bucketed in
one pass — each member is *snapshot-readable*, *batchable* or *single* — the
buckets run (reader pool · vectorized batch · the compiled-plan runner) and
the results come back in input order.  A single query is a wave of one and is
answered by a straight call into :meth:`Executor.run`.

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
from repro.mal.operators import gather
from repro.storage.bat import BAT
from repro.util.half_open import half_open, half_open_in_domain
from repro.util.sorted_search import sorted_probe_many

if TYPE_CHECKING:
    from repro.engine.database import Database

#: One wave member: a prepared plan and its already-validated bound values.
Member = tuple[PreparedPlan, tuple[float, ...]]

#: What text resolution knows about a member: ``(sql text, cache level that
#: answered, profile carrying the plan-acquisition timings)``.
Origin = tuple[str, str, QueryProfile]

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

    Used by the plain-column batch path to decide between one envelope scan
    (a single cluster: the envelope equals the union, so the scan reads
    nothing no member asked for) and the sort-and-probe kernel.  Only ranges
    that genuinely *share values* are merged: ranges that merely touch —
    ``low == envelope_high``, including bounds one ``math.nextafter`` apart,
    as an inclusive bound and the adjacent exclusive bound produce — stay in
    separate clusters, since their shared envelope would not be cheaper than
    exact per-member probes.  Returns clusters of positions into ``ranges``.
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

        result = QueryResult(
            sql=sql,
            parameters=values,
            columns=context.exported_columns(),
            scalars=dict(context.scalars),
            plan_text=prepared.text,
            total_seconds=time.perf_counter() - started,
            selection_seconds=bpm.total_selection_seconds - selection_before,
            adaptation_seconds=bpm.total_adaptation_seconds - adaptation_before,
            optimizer_seconds=execute_started - started,
            plan_cache_hit=level != "cold",
            cache_level=level,
            plan_cache_hits=database.plan_cache.hits,
            plan_cache_misses=database.plan_cache.misses,
            profile=profile,
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
        one member, the groups on snapshot-capable adaptive columns are
        answered concurrently against pinned snapshots; any other group of
        two or more is one vectorized batch pass, run where its first member
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

        def item(position: int) -> tuple[int, str, tuple[float, ...], RangeTemplate]:
            sql = origins[position][0] if origins else plans[position].sql
            return position, sql, members[position][1], plans[position].template

        workers = database.read_workers
        fan_out = workers > 1 and len(members) > 1
        reads: list[tuple[int, str, tuple[float, ...], RangeTemplate]] = []
        readable: dict[tuple[str, str], Any] = {}  # group -> its snapshot-capable strategy
        batch_at: dict[int, tuple[str, str]] = {}  # first member's position -> its group
        grouped: set[int] = set()
        for key, positions in groups.items():
            adaptive = self._snapshot_adaptive(*key) if fan_out else None
            if adaptive is not None:
                readable[key] = adaptive
                reads.extend(item(position) for position in positions)
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
        if reads:
            self._read_snapshots(reads, readable, workers, slots)
        return slots  # type: ignore[return-value]

    # -- snapshot reads -----------------------------------------------------------

    def _snapshot_adaptive(self, table: str, column: str) -> Any | None:
        """The snapshot-capable strategy behind ``table.column``, or ``None``."""
        bpm = self.database.bpm
        if not bpm.is_managed(table, column):
            return None
        adaptive = bpm.handle(table, column).adaptive
        return adaptive if getattr(adaptive, "supports_snapshot_reads", False) else None

    def _read_snapshots(
        self,
        reads: list[tuple[int, str, tuple[float, ...], RangeTemplate]],
        readable: dict[tuple[str, str], Any],
        workers: int,
        slots: list[QueryResult | BaseException | None],
    ) -> None:
        """Fan ``reads`` across the reader pool; fill their ``slots``.

        One snapshot is pinned per column and every projected column's BAT is
        resolved on this thread — readers touch no shared mutable state (numpy
        probe/gather kernels release the GIL).  After the readers join, each
        touched column absorbs its drained read observations: adaptation stays
        on this thread, once per wave.  A member's exception is raised only
        after every reader has joined.
        """
        catalog = self.database.catalog
        pinned = {
            key: (adaptive, adaptive.pin_snapshot()) for key, adaptive in readable.items()
        }
        bats: dict[tuple[str, str], BAT] = {}
        for _, _, _, template in reads:
            for name in template.projected:
                if (template.table, name) not in bats:
                    bats[(template.table, name)] = catalog.column(template.table, name).bind(0)

        def run_chunk(chunk: list) -> list[tuple[int, QueryResult | BaseException]]:
            out: list[tuple[int, QueryResult | BaseException]] = []
            for position, sql, values, template in chunk:
                adaptive, snapshot = pinned[(template.table, template.column)]
                try:
                    outcome = self._snapshot_read(
                        sql, values, template, adaptive, snapshot, bats
                    )
                except Exception as exc:  # noqa: BLE001 - raised after the join
                    outcome = exc
                out.append((position, outcome))
            return out

        chunk_count = min(workers, len(reads))
        pool = self._reader_executor(workers)
        futures = [
            pool.submit(run_chunk, reads[offset::chunk_count]) for offset in range(chunk_count)
        ]
        for future in futures:
            for position, outcome in future.result():
                slots[position] = outcome
        for adaptive, _ in pinned.values():
            adaptive.absorb_reads()
        for position, _, _, _ in reads:
            if isinstance(slots[position], BaseException):
                raise slots[position]

    def _snapshot_read(
        self,
        sql: str,
        values: tuple[float, ...],
        template: RangeTemplate,
        adaptive: Any,
        snapshot: Any,
        bats: dict[tuple[str, str], BAT],
    ) -> QueryResult:
        """Answer one member against a pinned snapshot (reader-thread safe).

        Touches only immutable state: the pinned snapshot, the pre-resolved
        column ``bats`` and the strategy's thread-safe observation
        accumulator.  No plan-cache store, catalog or accountant access.
        """
        started = time.perf_counter()
        low, high = half_open_in_domain(adaptive.domain, *template.bind(values))
        oids = adaptive.select_readonly(low, high, snapshot).oids
        selection_seconds = time.perf_counter() - started
        table = template.table
        cache = self.database.plan_cache
        return QueryResult(
            sql=sql,
            parameters=tuple(values),
            columns={name: gather(bats[(table, name)], oids) for name in template.projected},
            plan_text=f"# snapshot read on {table}.{template.column}",
            total_seconds=time.perf_counter() - started,
            selection_seconds=selection_seconds,
            plan_cache_hit=True,
            cache_level="snapshot",
            plan_cache_hits=cache.hits,
            plan_cache_misses=cache.misses,
            profile=QueryProfile(cold=False),
        )

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

    def _batch(
        self,
        table: str,
        column: str,
        items: list[tuple[int, str, tuple[float, ...], RangeTemplate]],
    ) -> list[QueryResult]:
        """One vectorized pass over ``table.column`` answering every member.

        An adaptive (BPM-managed) column answers the batch through the
        strategy layer's ``select_many`` — vectorized segment routing and
        probe kernels for the strategies that support batching, the
        sequential fallback otherwise — with adaptation piggy-backed on the
        batch.  A plain column is answered either by one envelope scan (all
        ranges strictly overlapping: the envelope is the union) or by
        value-sorting the column once and probing every member's slice —
        disjoint members cost two binary searches each, not a scan.
        """
        total_started = time.perf_counter()
        database = self.database
        catalog = database.catalog
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
            started = time.perf_counter()
            persistent = catalog.column(table, column).bind(0)
            values, heads = persistent.tail, persistent.head
            ranges = [half_open(*bound) for bound in bounds]
            if len(overlap_clusters(ranges)) == 1:
                # Every range shares values with the next: one mask scan over
                # the envelope (== the union) answers the whole batch.
                envelope_low = min(low for low, _, _, _ in bounds)
                envelope_high = max(high for _, high, _, _ in bounds)
                envelope = (values >= envelope_low) & (values <= envelope_high)
                scan_values = values[envelope]
                scan_oids = heads[envelope]
                extracted = []
                for low, high, include_low, include_high in bounds:
                    mask = (scan_values >= low) if include_low else (scan_values > low)
                    mask &= (scan_values <= high) if include_high else (scan_values < high)
                    extracted.append(scan_oids[mask])
                plan_text = (
                    f"# batched shared scan of {table}.{column} "
                    f"[{envelope_low:g}, {envelope_high:g}]"
                )
            else:
                # Disjoint ranges present: sort the column once, then each
                # member is two binary-search probes — no envelope over-scan.
                order = np.argsort(values, kind="stable")
                sorted_values = values[order]
                lows = np.asarray([low for low, _ in ranges], dtype=np.float64)
                highs = np.asarray([high for _, high in ranges], dtype=np.float64)
                los = sorted_probe_many(sorted_values, lows, side="left")
                his = sorted_probe_many(sorted_values, highs, side="left")
                extracted = [
                    heads[order[lo:hi]] for lo, hi in zip(los.tolist(), his.tolist())
                ]
                plan_text = (
                    f"# batched sort-and-probe on {table}.{column} ({len(items)} queries)"
                )
            selection_seconds = time.perf_counter() - started
            adaptation_seconds = 0.0

        share = 1.0 / len(items)
        cache = database.plan_cache
        column_bats: dict[str, BAT] = {}
        results: list[QueryResult] = []
        for (_, sql, member_values, template), oids in zip(items, extracted):
            columns: dict[str, np.ndarray] = {}
            for name in template.projected:
                if name not in column_bats:
                    column_bats[name] = catalog.column(table, name).bind(0)
                columns[name] = gather(column_bats[name], oids)
            results.append(
                QueryResult(
                    sql=sql,
                    parameters=member_values,
                    columns=columns,
                    plan_text=plan_text,
                    selection_seconds=selection_seconds * share,
                    adaptation_seconds=adaptation_seconds * share,
                    cache_level="batched",
                    plan_cache_hits=cache.hits,
                    plan_cache_misses=cache.misses,
                    batched=True,
                    profile=QueryProfile(cold=False),
                )
            )
        total_share = (time.perf_counter() - total_started) * share
        for result in results:
            result.total_seconds = total_share
            result.profile.execute_seconds = total_share
        return results

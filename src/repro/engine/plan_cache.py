"""An LRU cache of compiled plans, keyed by query shape and by SQL text.

Parsing, compiling, optimizing and lowering a statement is pure per-statement
work that the hot query path would otherwise repeat on every execution.  The
database short-circuits it with three key levels sharing one LRU store:

* ``("shape", shape)`` → :class:`CachedPlan` — the specialized
  :class:`~repro.mal.compiled.CompiledPlan` for one query *shape* (the
  statement with its range literals lifted into parameters by
  :func:`repro.sql.parameters.parameterize`).  All queries that differ only in
  their constants — the common case for the paper's Fig 5–7 workloads — share
  this entry; only a parse is needed to reach it.
* ``("text-shape", masked_text)`` → :class:`PreparedPlan` — the literal-masked
  text of a statement whose every literal is a lifted bound: literal variants
  reach their plan without a parse, and the masked literals *are* the binding.
* ``("prepared", normalized_text)`` → :class:`PreparedPlan` — the
  placeholder-shape level of the client API: the normalized text *with its
  ``?``/``:name`` placeholders* keys the lowered plan plus the pre-resolved
  binding template (environment slots, arity, range checks).  Executing
  through it skips the parse **and** the literal masking — binding validates
  ``high >= low``, arity and numeric type against the template and seeds the
  slot environment directly.

Both text levels hold the same thing — a :class:`PreparedPlan` — so every
statement, however it arrived, reaches the executor as *(prepared plan, bound
values)*.

Plans depend on the catalog schema and on which columns the BPM manages (the
segment optimizer rewrites selections on managed columns), so the database
clears the cache whenever either changes.  Externally-held prepared handles
survive a clear via the monotonically increasing :attr:`PlanCache.generation`:
a handle lowered under an older generation is re-prepared instead of served
stale.  Data changes (inserts, deletes) do *not* invalidate: ``sql.bind``
resolves BATs at execution time, and compiled plans hold pre-resolved module
callables, not data.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from repro.mal.compiled import CompiledPlan
from repro.sql.ast import ComparisonPredicate, Placeholder, SelectStatement
from repro.sql.compiler import SQLCompiler
from repro.sql.parameters import BindingSpec
from repro.storage.catalog import Catalog


def normalize_sql(sql: str) -> str:
    """The text-level cache key for a statement: whitespace-collapsed, case-folded.

    The supported SQL subset has no string literals, so case-folding the whole
    statement is safe and makes ``SELECT X FROM T`` and ``select x from t``
    share one plan.
    """
    return " ".join(sql.split()).lower()


@dataclass(frozen=True)
class CachedPlan:
    """One query shape's executable plan plus its pre-rendered text."""

    compiled: CompiledPlan
    text: str


@dataclass(frozen=True)
class RangeTemplate:
    """The shape of a batchable range select, decided once at prepare time.

    A statement carries a template when it is a plain projection under exactly
    one range or comparison predicate over known columns — the shape the
    vectorized batch executor, the snapshot readers and the router's workload
    model all understand.  Shape only: whether the table has pending deltas is
    a fact of the moment, read per wave, never stored here.

    ``bounds`` is the predicate's ``(low, high, include_low, include_high)``
    with each placeholder bound still a :class:`~repro.sql.ast.Placeholder`;
    :meth:`bind` resolves them against one binding.
    """

    table: str
    column: str
    projected: tuple[str, ...]
    bounds: tuple[float, float, bool, bool]

    def bind(self, values: Sequence[float]) -> tuple[float, float, bool, bool]:
        """The concrete SQL bounds of one execution."""
        low, high, include_low, include_high = self.bounds
        if isinstance(low, Placeholder):
            low = values[low.index]
        if isinstance(high, Placeholder):
            high = values[high.index]
        return low, high, include_low, include_high


def range_template(statement: SelectStatement, catalog: Catalog) -> RangeTemplate | None:
    """Classify ``statement``: its :class:`RangeTemplate`, or ``None``.

    ``None`` for aggregates, a ``LIMIT``, ``<>``, anything but exactly one
    predicate, and unknown tables or columns (those statements fail in the
    compiler with the usual error).
    """
    if statement.is_aggregate or statement.limit is not None:
        return None
    if len(statement.predicates) != 1:
        return None
    predicate = statement.predicates[0]
    if isinstance(predicate, ComparisonPredicate) and predicate.operator == "<>":
        return None
    try:
        schema = catalog.schema(statement.table)
        projected = (
            schema.column_names if statement.columns == ("*",) else statement.columns
        )
        for name in (*projected, predicate.column):
            schema.dtype_of(name)
    except KeyError:
        return None
    return RangeTemplate(
        table=statement.table,
        column=predicate.column,
        projected=tuple(projected),
        bounds=SQLCompiler.bounds(predicate),
    )


@dataclass(frozen=True)
class PreparedPlan:
    """A lowered plan plus its binding template — what every statement becomes.

    ``sql`` is the normalized statement text *including placeholders* (the
    cache key, and what a stale handle re-prepares from); ``binding``
    validates client parameters; ``slots`` maps placeholder position →
    environment slot of the compiled plan (resolved once, at prepare time);
    ``generation`` is the cache generation the plan was lowered under — when
    it trails the cache's current generation the schema or an adaptive
    registration changed and the plan must be re-lowered; ``template`` is the
    statement's range-select classification (``None``: not batchable).
    """

    sql: str
    plan: CachedPlan
    binding: BindingSpec
    slots: tuple[int, ...]
    generation: int
    template: RangeTemplate | None


@dataclass(frozen=True)
class PlanCacheStats:
    """A snapshot of the cache counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class PlanCacheLevelStats:
    """Hit/miss/eviction counters of one cache level (plus resident entries)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups at this level (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


#: Internal key prefixes mapped onto the public cache-level names surfaced on
#: ``QueryResult.cache_level`` (``"cold"``/``"batched"`` are outcomes, not
#: store levels, so they never appear here).
_LEVEL_NAMES = {
    "text-shape": "masked",
    "shape": "shape",
    "prepared": "prepared",
}


def _level_of(key: Hashable) -> str:
    """The raw level tag of a cache key (its tuple prefix).

    Kept deliberately cheap — this runs on every cache lookup of the warm
    query path.  Translation to the public level names happens once, in
    :meth:`PlanCache.level_stats`.
    """
    if type(key) is tuple and key:
        return key[0]
    return "other"


class PlanCache:
    """A bounded LRU mapping from hashable keys to cached plan entries.

    All levels share the one LRU store; per-level hit/miss/eviction counters
    (keyed by the public level names — ``masked``/``shape``/``prepared``) are
    kept alongside the totals for
    :meth:`~repro.engine.database.Database.cache_stats`.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"plan cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.generation = 0
        # level name -> [hits, misses, evictions]
        self._level_counters: dict[str, list[int]] = {}
        # One lock covers store and counters: reader threads resolving plans
        # concurrently with an owner-thread clear() must never observe a
        # half-updated LRU (OrderedDict.move_to_end is not atomic under
        # free-threaded builds, and counter increments race regardless).
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def _counters(self, level: str) -> list[int]:
        counters = self._level_counters.get(level)
        if counters is None:
            counters = self._level_counters[level] = [0, 0, 0]
        return counters

    def get(self, key: Hashable) -> Any | None:
        """The cached entry for ``key``, refreshing its recency; counts hit/miss."""
        with self._lock:
            plan = self._plans.get(key)
            # Inlined level tagging: this runs on every warm-path lookup.
            level = key[0] if type(key) is tuple and key else "other"
            counters = self._level_counters.get(level)
            if counters is None:
                counters = self._level_counters[level] = [0, 0, 0]
            if plan is None:
                self.misses += 1
                counters[1] += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            counters[0] += 1
            return plan

    def put(self, key: Hashable, plan: Any) -> None:
        """Store an entry, evicting the least recently used one when full."""
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                evicted_key, _ = self._plans.popitem(last=False)
                self.evictions += 1
                self._counters(_level_of(evicted_key))[2] += 1

    def level_stats(self) -> dict[str, PlanCacheLevelStats]:
        """Per-level counters, including levels that saw lookups but hold nothing.

        Keys are the public level names (``masked``/``shape``/``prepared``).
        Entry counts are computed by a scan over the resident keys — this is
        an administrative surface, not a hot path.
        """
        with self._lock:
            entries: dict[str, int] = {}
            for key in self._plans:
                level = _level_of(key)
                entries[level] = entries.get(level, 0) + 1
            levels = sorted(self._level_counters.keys() | entries.keys())
            return {
                _LEVEL_NAMES.get(level, level): PlanCacheLevelStats(
                    hits=self._level_counters.get(level, [0, 0, 0])[0],
                    misses=self._level_counters.get(level, [0, 0, 0])[1],
                    evictions=self._level_counters.get(level, [0, 0, 0])[2],
                    entries=entries.get(level, 0),
                )
                for level in levels
            }

    def clear(self) -> None:
        """Drop every cached plan (schema or adaptive registration changed).

        Always advances :attr:`generation`: prepared handles held outside the
        cache (by :class:`~repro.api.PreparedStatement`) compare it to decide
        whether their lowered plan is stale — even when the store happened to
        be empty at clear time, the handles themselves may not be.
        """
        with self._lock:
            if self._plans:
                self.invalidations += 1
            self.generation += 1
            self._plans.clear()

    @property
    def stats(self) -> PlanCacheStats:
        """Current counters as an immutable snapshot."""
        return PlanCacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            size=len(self._plans),
            capacity=self.capacity,
        )

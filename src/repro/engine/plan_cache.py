"""A bounded LRU from the text a statement is known by to its prepared plan.

Parsing, lowering and compiling a statement is pure per-statement work that
the hot query path would otherwise repeat on every execution.  The
database short-circuits it with one cache level: the statement's normalized
``?`` / ``:name`` text maps to one :class:`PreparedPlan` — the specialized
:class:`~repro.mal.compiled.CompiledPlan` of the plan's one lowering plus the
pre-resolved binding template (environment slots, arity, range checks).

* A prepared statement (:meth:`Database.prepare_statement`, the client API's
  ``Connection.prepare`` / ``Cursor.execute(sql, params)``) is known by its
  placeholder text as written: executing through it is one dictionary lookup
  and a bind.
* Literal text is known by its literal-masked text
  (:func:`repro.sql.parameters.mask_literals`): every range literal becomes a
  ``?`` and the masked literals *are* the binding, so all queries that differ
  only in their constants — the common case for the paper's Fig 5–7
  workloads — reach their plan without a parse.  The masked text of
  ``... BETWEEN 1.5 AND 2.5`` is character for character the normalized text
  of ``... BETWEEN ? AND ?``, so a statement that arrives both ways is one
  entry and one compiled plan.

Plans depend on the catalog schema and on which columns the BPM manages (a
managed column's predicate selects through the BPM), so the database
clears the cache whenever either changes.  Externally-held prepared handles
survive a clear by one rule, :meth:`PlanCache.is_current`: a plan runs only
under the cache, and the generation, that lowered it — anything else (an
older generation, or another replica's cache) is re-prepared from its text
instead of served stale.  Data changes (inserts, deletes) do *not* invalidate: ``sql.bind``
resolves BATs at execution time, and compiled plans hold pre-resolved module
callables, not data.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from repro.mal.compiled import CompiledPlan
from repro.optimizer.segment_optimizer import SegmentOptimizer
from repro.sql.ast import ComparisonPredicate, Placeholder, SelectStatement
from repro.sql.compiler import SQLCompiler, figure1
from repro.sql.parameters import BindError, BindingSpec, mask_literals
from repro.storage.catalog import Catalog, TableSchema


def normalize_sql(sql: str) -> str:
    """The text-level cache key for a statement: whitespace-collapsed, case-folded.

    The supported SQL subset has no string literals, so case-folding the whole
    statement is safe and makes ``SELECT X FROM T`` and ``select x from t``
    share one plan.
    """
    return " ".join(sql.split()).lower()


def bind_literals(
    sql: str, lookup: Callable[[str], "PreparedPlan | None"]
) -> tuple[str, tuple[float, ...], "tuple[PreparedPlan, tuple[float, ...]] | None"]:
    """Literal SQL through a plan cache: mask, look up, bind.

    Returns the literal-masked text, its literals, and *(plan, bound values)*
    when ``lookup(masked)`` finds a plan the literals bind to — ``None`` on a
    miss, or when they do not bind (wrong arity, ``high < low``): the caller
    then parses the text, which raises the statement's usual error.
    ``lookup`` is :meth:`PlanCache.get` on the engine's thread, or
    :meth:`PlanCache.find` from another thread.
    """
    masked, literals = mask_literals(normalize_sql(sql))
    prepared = lookup(masked)
    if prepared is not None:
        try:
            return masked, literals, (prepared, prepared.binding.bind(literals))
        except BindError:
            pass
    return masked, literals, None


@dataclass(frozen=True)
class RangeTemplate:
    """The shape of a batchable range select, decided once at prepare time.

    A statement carries a template when it is a plain projection under exactly
    one range or comparison predicate over known columns — the shape the
    vectorized batch executor and the router's workload model both
    understand.  Shape only: whether the table has pending deltas is
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


def figure1_text(
    statement: SelectStatement, name: str, schema: TableSchema, managed: frozenset[str]
) -> str:
    """``statement``'s optimized Figure-1 MAL plan in concrete syntax.

    The one renderer of a plan's text, behind ``explain`` and
    :attr:`PreparedPlan.text`.  It reads only its arguments — the statement,
    its program name, its table's schema and the predicate columns the BPM
    managed — so a plan renders what it would have rendered when it was
    prepared, whatever the catalog and the BPM did since.
    """
    optimizer = SegmentOptimizer(lambda table, column: column in managed)
    return optimizer.optimize(figure1(statement, schema, name)).render()


@dataclass(frozen=True)
class PreparedPlan:
    """A lowered plan plus its binding template — what every statement becomes.

    ``sql`` is the normalized statement text *including placeholders* (the
    cache key, and what a stale handle re-prepares from); ``compiled`` is the
    executable plan (the statement's lowering, see
    :meth:`repro.sql.compiler.SQLCompiler.lower`); ``binding`` validates
    client parameters; ``slots`` maps placeholder position → environment slot
    of the compiled plan (resolved once, at prepare time); ``cache`` (a weak
    reference, so a cache and the plans it stores form no cycle) and
    ``generation`` are the plan cache that lowered the plan and its generation
    at the time — see :meth:`PlanCache.is_current`; ``template`` is the
    statement's range-select classification (``None``: not batchable).

    ``statement``, ``schema`` (its table's, as it was) and ``managed`` (its
    predicate columns the BPM managed) are what prepare captured for
    :attr:`text`: nothing builds the Figure-1 program until it is read.
    """

    sql: str
    compiled: CompiledPlan
    binding: BindingSpec
    slots: tuple[int, ...]
    generation: int
    template: RangeTemplate | None
    statement: SelectStatement
    schema: TableSchema
    managed: frozenset[str]
    cache: "weakref.ref[PlanCache]" = field(compare=False, repr=False)

    @cached_property
    def text(self) -> str:
        """The Figure-1 MAL plan in concrete syntax, built on first read."""
        return figure1_text(self.statement, self.compiled.name, self.schema, self.managed)


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


class PlanCache:
    """A bounded LRU mapping from statement text to its :class:`PreparedPlan`."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"plan cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[str, PreparedPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.generation = 0
        # One lock covers store and counters: other threads resolving plans
        # concurrently with an owner-thread clear() must never observe a
        # half-updated LRU (OrderedDict.move_to_end is not atomic under
        # free-threaded builds, and counter increments race regardless).
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def is_current(self, plan: PreparedPlan) -> bool:
        """The plan-refresh rule: may ``plan`` run on this cache's engine?

        Only when this cache lowered it, at the current generation.  A plan
        from an older generation (the schema or an adaptive registration
        changed since) or from another engine's cache (a routed wave carries
        the lead replica's plans) must be re-prepared from its text.
        """
        return plan.cache() is self and plan.generation == self.generation

    def get(self, text: str) -> PreparedPlan | None:
        """The plan cached under ``text``, refreshing its recency; counts hit/miss."""
        plan = self.find(text)
        if plan is None:
            with self._lock:
                self.misses += 1
        return plan

    def find(self, text: str) -> PreparedPlan | None:
        """Like :meth:`get`, but a miss counts nothing.

        For a lookup from another thread whose miss goes on to the engine —
        :meth:`~repro.engine.database.Database.prepare_statement` or
        :meth:`~repro.engine.database.Database.resolve` — which counts it.
        A hit counts and refreshes its recency, so a text served this way
        ages in the LRU like one served on the engine's thread.
        """
        with self._lock:
            plan = self._plans.get(text)
            if plan is not None:
                self._plans.move_to_end(text)
                self.hits += 1
            return plan

    def put(self, text: str, plan: PreparedPlan) -> None:
        """Store a plan, evicting the least recently used one when full."""
        with self._lock:
            self._plans[text] = plan
            self._plans.move_to_end(text)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every cached plan (schema or adaptive registration changed).

        Always advances :attr:`generation`, so every plan lowered before it
        fails :meth:`is_current` — even when the store happened to be empty
        at clear time, handles held outside it may not be.
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

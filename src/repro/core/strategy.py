"""The pluggable adaptive-strategy layer.

The paper's central claim is that *multiple* self-organizing strategies —
the non-segmented baseline, adaptive segmentation (§4) and adaptive
replication (§5) — can coexist behind a single column-store interface.  This
module makes that claim structural: every strategy is a class implementing the
:class:`AdaptiveColumnStrategy` surface and registering itself under its
``strategy_name``.  The BPM, the simulator, the grid runner and the SQL engine
all resolve strategies through the registry, so adding a new strategy (hybrid
segmentation+replication, sharded columns, ...) is one file that calls
:func:`register_strategy` — no dispatch chain anywhere needs editing.

Public surface:

* :class:`AdaptiveColumnStrategy` — the runtime-checkable protocol.
* :class:`AdaptiveColumnBase` — the template every strategy extends: it owns
  construction (validation, domain, accountant, ``history``) and the three
  doors ``select`` / ``select_many`` / ``absorb_reads``, each of which opens
  the one *query frame* (one :class:`QueryStats` record, accountant attached
  for exactly the hook's duration, one ``history`` append, one model
  observation) around a per-strategy hook — ``_execute``, optionally
  ``_execute_batch`` and ``_absorb``.  A strategy that keeps an
  :class:`~repro.core.interval_index.IntervalIndex` in ``index`` gets the
  snapshot reader (``pin_snapshot`` / ``select_readonly``) from it.
* :func:`batch_bounds_arrays` — shared validation for the batched
  ``select_many`` hook (mirrors :class:`~repro.core.ranges.ValueRange`).
* :func:`register_strategy` / :func:`unregister_strategy` — registry admin.
* :func:`strategy_class` / :func:`available_strategies` — lookup.
* :func:`create_strategy` — the factory every layer builds columns through.
"""

from __future__ import annotations

import inspect
import threading
import time
from typing import Any, ClassVar, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.accounting import IOAccountant, QueryLog, QueryStats
from repro.core.interval_index import IndexSnapshot, IntervalIndex
from repro.core.ranges import ValueRange, domain_of
from repro.core.segment import SelectionResult


class ReadObservations:
    """Thread-safe accumulator for snapshot-read observations.

    Snapshot readers never mutate the column, its IO accountant or its query
    history — they only record *what they saw* here (query bounds and result
    sizes) under one small lock.  The owning worker later drains the
    accumulator on the serialized adaptation path (:meth:`absorb_reads`), so
    the single-writer invariant holds for every adaptive structure while
    reads run concurrently.
    """

    __slots__ = ("_lock", "_bounds", "_result_bytes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bounds: list[tuple[float, float]] = []
        self._result_bytes: list[float] = []

    def record(self, low: float, high: float, result_bytes: float) -> None:
        """Record one snapshot read (called from reader threads)."""
        with self._lock:
            self._bounds.append((low, high))
            self._result_bytes.append(float(result_bytes))

    def __len__(self) -> int:
        with self._lock:
            return len(self._bounds)

    def drain(self) -> tuple[list[tuple[float, float]], list[float]]:
        """Take every pending observation (called from the owning worker)."""
        with self._lock:
            bounds, self._bounds = self._bounds, []
            result_bytes, self._result_bytes = self._result_bytes, []
        return bounds, result_bytes


def batch_bounds_arrays(
    bounds: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a batch of ``(low, high)`` pairs into two float arrays.

    Applies the same constraints :class:`~repro.core.ranges.ValueRange`
    enforces per query (finite bounds, ``high >= low``) so the batched and
    per-query paths reject malformed ranges identically.  An ``(n, 2)``
    float array is accepted directly (its columns become the bound arrays
    without a per-element conversion) — the form the engine's batch executor
    hands over.
    """
    if isinstance(bounds, np.ndarray):
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError(
                f"batch bounds array must have shape (n, 2), got {bounds.shape}"
            )
        array = bounds.astype(np.float64, copy=False)
        lows, highs = array[:, 0], array[:, 1]
    else:
        lows = np.asarray([float(low) for low, _ in bounds], dtype=np.float64)
        highs = np.asarray([float(high) for _, high in bounds], dtype=np.float64)
    if lows.size:
        if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
            raise ValueError("batch range bounds must be finite")
        if bool(np.any(highs < lows)):
            raise ValueError("batch range bounds must satisfy high >= low")
    return lows, highs


@runtime_checkable
class AdaptiveColumnStrategy(Protocol):
    """What every self-organizing column strategy exposes.

    The three built-ins (:class:`~repro.core.baseline.UnsegmentedColumn`,
    :class:`~repro.core.segmentation.SegmentedColumn`,
    :class:`~repro.core.replication.ReplicatedColumn`) implement this surface;
    so must any plugged-in strategy — extending :class:`AdaptiveColumnBase`
    provides everything here but ``storage_bytes``, ``segment_count`` and
    ``check_invariants``.  ``history`` is always a :class:`QueryLog`: one
    record per ``select``, per batch-kernel ``select_many`` and per
    ``absorb_reads``.
    """

    strategy_name: ClassVar[str]
    requires_model: ClassVar[bool]
    domain: ValueRange
    history: QueryLog
    total_bytes: float
    index: IntervalIndex | None

    @property
    def storage_bytes(self) -> float: ...

    @property
    def segment_count(self) -> int: ...

    def select(self, low: float, high: float) -> SelectionResult: ...

    def select_many(
        self, bounds: Sequence[tuple[float, float]]
    ) -> list[SelectionResult]: ...

    def stats(self) -> QueryStats | None: ...

    def adapt(self, low: float, high: float) -> QueryStats | None: ...

    def describe(self) -> dict[str, Any]: ...

    def check_invariants(self) -> None: ...


class AdaptiveColumnBase:
    """The template every strategy extends: construction and the query frame.

    Subclasses set :attr:`strategy_name` (the registry key),
    :attr:`requires_model` (whether construction needs a segmentation model)
    and :attr:`display_short` (the label fragment used in the paper's plots),
    start their ``__init__`` with ``super().__init__(...)`` and implement
    :meth:`_execute`.  The public doors — :meth:`select`, :meth:`select_many`,
    :meth:`absorb_reads` — live here and must not be overridden: each opens
    the one query frame and runs a hook inside it, so every strategy's
    ``history`` holds the same kind of record, written the same way.
    """

    #: Registry key; empty means "abstract, do not register".
    strategy_name: ClassVar[str] = ""
    #: Whether :func:`create_strategy` must be given a segmentation model.
    requires_model: ClassVar[bool] = True
    #: Label fragment in the paper's style ("Segm", "Repl", "NoSegm").
    display_short: ClassVar[str] = ""
    #: Whether :meth:`select_readonly` answers from a pinned immutable
    #: snapshot without mutating any shared state, so reader threads can
    #: call it concurrently with adaptation on the owning worker.  ``False``
    #: keeps the strategy on the serialized single-worker path.
    supports_snapshot_reads: ClassVar[bool] = False
    #: The vectorized batch hook ``(lows, highs, stats) -> list[SelectionResult]``
    #: a strategy defines when it can amortize a batch: one frame, one record
    #: with ``batch_size == N``.  Left ``None``, :meth:`select_many` answers
    #: one :meth:`select` per member (N frames, N records).
    _execute_batch: ClassVar[Any] = None

    #: The interval index over the stored pieces, for a strategy that keeps
    #: one: it answers :meth:`select_readonly` and the router's cost probe.
    index: IntervalIndex | None = None
    #: The segmentation model that decides splits (strategies with
    #: ``requires_model = False`` carry none).
    model: Any
    # Subclasses provide these (declared for type checkers only).
    storage_bytes: float
    segment_count: int

    def __init__(
        self,
        values: np.ndarray,
        *,
        domain: tuple[float, float] | None = None,
        accountant: IOAccountant | None = None,
        time_phases: bool = True,
    ) -> None:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("a column must be a one-dimensional array")
        if values.size == 0:
            raise ValueError("cannot build a column from an empty array")
        self.dtype = values.dtype
        self.value_width = int(values.dtype.itemsize)
        self.domain = (
            ValueRange(float(domain[0]), float(domain[1])) if domain is not None else domain_of(values)
        )
        self.total_bytes = float(values.size * self.value_width)
        self.accountant = accountant if accountant is not None else IOAccountant()
        self.history = QueryLog()
        #: Snapshot readers record what they saw here; :meth:`absorb_reads`
        #: drains it on the owning worker.
        self.read_observations = ReadObservations()
        self._time_phases = time_phases
        self._queries_executed = 0

    @classmethod
    def paper_label(cls, model_name: str | None = None) -> str:
        """The paper-style run label, e.g. ``"APM Segm"`` or ``"NoSegm"``."""
        if not cls.requires_model or not model_name:
            return cls.display_short
        return f"{model_name.upper()} {cls.display_short}"

    def stats(self) -> QueryStats | None:
        """Per-query stats of the most recent selection (``None`` if nothing ran)."""
        records = self.history.records
        return records[-1] if records else None

    # -- the query frame -----------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() if self._time_phases else 0.0

    def _open_frame(self, low: float, high: float, batch_size: int) -> QueryStats:
        """Start one record and route the accountant's increments into it.

        The caller runs its hook under ``try`` / ``finally:
        self.accountant.detach()`` and then hands the record to
        :meth:`_close_frame`; a hook that raises leaves no record behind.
        """
        stats = QueryStats(
            index=self._queries_executed, low=low, high=high, batch_size=batch_size
        )
        self.accountant.attach(stats)
        return stats

    def _close_frame(self, stats: QueryStats, result_count: int) -> None:
        """Complete the record, append it to ``history`` and tell the strategy."""
        stats.result_count = result_count
        stats.segment_count = self.segment_count
        stats.storage_bytes = self.storage_bytes
        self._queries_executed += stats.batch_size
        self.history.append(stats)
        self._after_frame(stats)

    def _after_frame(self, stats: QueryStats) -> None:
        """Hook run once per closed record (default: nothing)."""

    # -- the three doors -----------------------------------------------------

    def select(self, low: float, high: float) -> SelectionResult:
        """Answer ``low <= value < high``; adaptation is piggy-backed on it.

        One record of per-query measurements is appended to :attr:`history`.
        """
        query = ValueRange(float(low), float(high))
        stats = self._open_frame(query.low, query.high, 1)
        try:
            result = self._execute(query, stats)
        finally:
            self.accountant.detach()
        self._close_frame(stats, result.count)
        return result

    def select_many(
        self, bounds: Sequence[tuple[float, float]]
    ) -> list[SelectionResult]:
        """Answer N half-open range selections ``[low_i, high_i)`` at once.

        A strategy with an :attr:`_execute_batch` hook answers the whole batch
        inside one frame: access statistics are genuinely shared, adaptation
        fires once per batch, the model observes the batch's mean result size
        and one record with ``batch_size == len(bounds)`` lands in
        :attr:`history`.  Without the hook this is the sequential fallback —
        one :meth:`select` per pair, with the usual per-query adaptation and
        record — so every registered strategy is batch-correct by
        construction.
        """
        if self._execute_batch is None:
            return [self.select(low, high) for low, high in bounds]
        lows, highs = batch_bounds_arrays(bounds)
        if lows.size == 0:
            return []
        stats = self._open_frame(float(lows.min()), float(highs.max()), int(lows.size))
        try:
            results = self._execute_batch(lows, highs, stats)
        finally:
            self.accountant.detach()
        self._close_frame(stats, sum(result.count for result in results))
        return results

    def absorb_reads(self) -> int:
        """Drain pending snapshot-read observations on the owning worker.

        The drained reads become one record with ``batch_size == absorbed
        count`` (the reads themselves were not accounted, so only what
        :meth:`_absorb` writes touches the accountant) and the model observes
        their mean result size.  Returns the number of observations absorbed.
        """
        bounds, result_bytes = self.read_observations.drain()
        if not bounds:
            return 0
        lows = np.asarray([low for low, _ in bounds], dtype=np.float64)
        highs = np.asarray([high for _, high in bounds], dtype=np.float64)
        stats = self._open_frame(float(lows.min()), float(highs.max()), len(bounds))
        try:
            self._absorb(lows, highs, stats)
        finally:
            self.accountant.detach()
        self._close_frame(stats, int(round(sum(result_bytes) / self.value_width)))
        return len(bounds)

    # -- per-strategy hooks --------------------------------------------------

    def _execute(self, query: ValueRange, stats: QueryStats) -> SelectionResult:
        """Answer ``query`` (and adapt), timing the phases into ``stats``."""
        raise NotImplementedError

    def _absorb(self, lows: np.ndarray, highs: np.ndarray, stats: QueryStats) -> None:
        """Replay drained snapshot reads into the adaptation machinery.

        The default adapts nothing: the reads only feed the ledger and the
        model's result-size average.
        """

    # -- snapshot reads ----------------------------------------------------

    def pin_snapshot(self) -> IndexSnapshot | None:
        """Pin an immutable snapshot of :attr:`index` (``None`` without one).

        Owning thread only: :meth:`IntervalIndex.pin` captures a snapshot
        when the index changed since the last pin.  ``None`` means the
        strategy keeps no index — its read structure is inherently immutable
        (the unsegmented baseline) or it does not support snapshot reads.
        """
        return None if self.index is None else self.index.pin()

    def select_readonly(
        self, low: float, high: float, snapshot: IndexSnapshot | None = None
    ) -> SelectionResult:
        """Answer one range selection against a pinned snapshot.

        The snapshot's cover, then ``Segment.select`` per piece (a piece the
        range contains answers from its range alone), concatenated in value
        order.  Unlike :meth:`select`, this never adapts, never touches the
        IO accountant or the query history, and records its observation into
        :attr:`read_observations` instead — safe to call from reader threads
        concurrently with adaptation, when ``supports_snapshot_reads`` is
        ``True``.  A reader off the owning thread passes a snapshot pinned
        there; without one the call pins for itself.
        """
        if self.index is None:
            raise NotImplementedError(
                f"strategy {self.strategy_name!r} does not support snapshot reads"
            )
        query = ValueRange(float(low), float(high))
        if snapshot is None:
            snapshot = self.index.pin()
        result = SelectionResult.concatenate(
            [piece.select(query) for piece in snapshot.cover(query)], self.dtype
        )
        self.read_observations.record(query.low, query.high, result.count * self.value_width)
        return result

    def adapt(self, low: float, high: float) -> QueryStats | None:
        """Run one selection purely for its adaptation side effect.

        Adaptation is piggy-backed on selections in every strategy, so an
        explicit adaptation pass is a selection whose payload is discarded.
        Returns the stats of that selection.
        """
        self.select(low, high)
        return self.stats()

    def describe(self) -> dict[str, Any]:
        """A structured snapshot of the strategy's current state."""
        return {
            "strategy": self.strategy_name,
            "segment_count": self.segment_count,
            "storage_bytes": float(self.storage_bytes),
            "total_bytes": float(self.total_bytes),
            "domain": (self.domain.low, self.domain.high),
            "queries_executed": len(self.history),
        }


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type] = {}
_BUILTINS_LOADED = False


def register_strategy(cls: type) -> type:
    """Class decorator registering a strategy under its ``strategy_name``.

    Names are normalized (lowercased, stripped) so registration and lookup
    agree.  Re-registering the same class is a no-op; registering a
    *different* class under a taken name raises, so plugins cannot silently
    shadow built-ins.
    """
    name = str(getattr(cls, "strategy_name", "")).strip().lower()
    if not name:
        raise ValueError(f"{cls.__qualname__} must define a non-empty strategy_name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"strategy {name!r} is already registered by {existing.__qualname__}"
        )
    _REGISTRY[name] = cls
    return cls


def unregister_strategy(name: str) -> None:
    """Remove a strategy from the registry (used by tests and plugins)."""
    _REGISTRY.pop(name.strip().lower(), None)


def _ensure_builtins() -> None:
    """Import the built-in strategy modules so they self-register."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.core import baseline, replication, segmentation  # noqa: F401


def available_strategies() -> tuple[str, ...]:
    """The registered strategy names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def strategy_class(name: str) -> type:
    """Look up a strategy class by name (case- and whitespace-insensitive)."""
    _ensure_builtins()
    key = str(name).strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None


def create_strategy(
    name: str,
    values: np.ndarray,
    *,
    model: Any | None = None,
    strict: bool = True,
    **options: Any,
) -> AdaptiveColumnStrategy:
    """Instantiate the strategy ``name`` over ``values``.

    ``model`` is forwarded only to strategies that declare
    ``requires_model=True`` (and is then mandatory).  Remaining keyword
    options are forwarded when the strategy's constructor accepts them;
    ``None``-valued unknown options are always dropped so callers can pass a
    uniform option set for every strategy (e.g. ``storage_budget=None``).
    With ``strict=True`` (the default) a non-``None`` option the constructor
    does not know is an error; ``strict=False`` drops it instead, which is
    what legacy callers passing one option set to every strategy expect.
    """
    cls = strategy_class(name)
    parameters = inspect.signature(cls.__init__).parameters
    kwargs: dict[str, Any] = {}
    if cls.requires_model:
        if model is None:
            raise ValueError(f"strategy {cls.strategy_name!r} requires a segmentation model")
        kwargs["model"] = model
    for key, value in options.items():
        if key in parameters:
            kwargs[key] = value
        elif strict and value is not None:
            raise TypeError(
                f"strategy {cls.strategy_name!r} does not accept option {key!r}"
            )
    return cls(values, **kwargs)

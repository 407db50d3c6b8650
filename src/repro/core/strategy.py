"""The pluggable adaptive-strategy layer.

The paper's central claim is that *multiple* self-organizing strategies —
the non-segmented baseline, adaptive segmentation (§4) and adaptive
replication (§5) — can coexist behind a single column-store interface.  This
module makes that claim structural: every strategy is a class extending
:class:`AdaptiveColumnBase` and registering itself under its
``strategy_name``.  The BPM, the simulator, the grid runner and the SQL engine
all resolve strategies through the registry, so adding a new strategy (hybrid
segmentation+replication, sharded columns, ...) is one file that calls
:func:`register_strategy` — no dispatch chain anywhere needs editing.

Public surface:

* :class:`AdaptiveColumnBase` — the one contract every strategy extends: it owns
  construction (validation, domain, accountant, ``history``) and the two
  doors ``select`` / ``select_many``, each of which opens the one *query
  frame* (one :class:`QueryStats` record, accountant attached for exactly
  the hook's duration, one ``history`` append, one model observation)
  around a per-strategy hook — ``_execute`` and optionally
  ``_execute_batch``.  Segmentation and replication define the batch hook;
  only the NoSegm baseline takes the sequential fallback (one ``select``
  per member).
* :func:`batch_bounds_arrays` — shared validation for the batched
  ``select_many`` hook (mirrors :class:`~repro.core.ranges.ValueRange`).
* :func:`register_strategy` — the class decorator that registers a strategy.
* :func:`strategy_class` / :func:`available_strategies` — lookup.
* :func:`create_strategy` — the factory every layer builds columns through.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, ClassVar, Sequence

import numpy as np

from repro.core.accounting import IOAccountant, QueryLog, QueryStats
from repro.core.interval_index import IntervalIndex
from repro.core.ranges import ValueRange, domain_of
from repro.core.segment import SelectionResult


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


def _untimed() -> float:
    """The phase clock of a column built with ``time_phases=False``."""
    return 0.0


class AdaptiveColumnBase:
    """The template every strategy extends: construction and the query frame.

    It is the one strategy contract the BPM and every other layer hold.
    Subclasses set :attr:`strategy_name` (the registry key),
    :attr:`requires_model` (whether construction needs a segmentation model)
    and :attr:`display_short` (the label fragment used in the paper's plots),
    start their ``__init__`` with ``super().__init__(...)``, implement
    :meth:`_execute` and provide ``storage_bytes``, ``segment_count`` and
    ``check_invariants``.  ``history`` is always a :class:`QueryLog`: one
    record per ``select`` and per batch-kernel ``select_many``.  The public doors — :meth:`select` and
    :meth:`select_many` — live here and must not be overridden: each opens
    the one query frame and runs a hook inside it, so every strategy's
    ``history`` holds the same kind of record, written the same way.
    """

    #: Registry key; empty means "abstract, do not register".
    strategy_name: ClassVar[str] = ""
    #: Whether :func:`create_strategy` must be given a segmentation model.
    requires_model: ClassVar[bool] = True
    #: Label fragment in the paper's style ("Segm", "Repl", "NoSegm").
    display_short: ClassVar[str] = ""
    #: The vectorized batch hook ``(lows, highs, stats) -> list[SelectionResult]``
    #: a strategy defines when it can amortize a batch: one frame, one record
    #: with ``batch_size == N``.  Left ``None``, :meth:`select_many` answers
    #: one :meth:`select` per member (N frames, N records).
    _execute_batch: ClassVar[Any] = None

    #: The interval index over the stored pieces, for a strategy that keeps
    #: one: it answers the router's cost probe.
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
        #: The phase clock: ``perf_counter`` itself, or a zero when phases are
        #: not timed — an attribute, so reading it costs no Python frame.
        self._now = time.perf_counter if time_phases else _untimed
        self._queries_executed = 0

    @classmethod
    def paper_label(cls, model_name: str | None = None) -> str:
        """The paper-style run label, e.g. ``"APM Segm"`` or ``"NoSegm"``."""
        if not cls.requires_model or not model_name:
            return cls.display_short
        return f"{model_name.upper()} {cls.display_short}"

    # -- the query frame -----------------------------------------------------

    def _open_frame(self, low: float, high: float, batch_size: int) -> QueryStats:
        """Start one record and route the accountant's increments into it.

        The caller runs its hook under ``try`` / ``finally:
        self.accountant.detach()`` and then hands the record to
        :meth:`_close_frame`; a hook that raises leaves no record behind.
        """
        # Positional, in QueryStats' field order; batch_size is the last field.
        stats = QueryStats(self._queries_executed, low, high)
        stats.batch_size = batch_size
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

    # -- the two doors -------------------------------------------------------

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
        inside one frame: access statistics are genuinely shared, the hook
        adapts the column inside the frame (segmentation once per batch,
        replication per member) and one record with
        ``batch_size == len(bounds)`` lands in :attr:`history`.  Without the
        hook this is the sequential fallback — one :meth:`select` per pair,
        with the usual per-query adaptation and record — so every registered
        strategy is batch-correct by construction.
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

    # -- per-strategy hooks --------------------------------------------------

    def _execute(self, query: ValueRange, stats: QueryStats) -> SelectionResult:
        """Answer ``query`` (and adapt), timing the phases into ``stats``."""
        raise NotImplementedError

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
) -> AdaptiveColumnBase:
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

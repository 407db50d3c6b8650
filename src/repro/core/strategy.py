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
  construction (validation, domain, accountant, ``history``), the two doors
  ``select`` / ``select_many``, each of which opens the one *query frame*
  (one :class:`QueryStats` record, accountant attached for exactly the read
  path's duration, one ``history`` append), and the one read path behind
  them.  The paper's techniques share the selection — Algorithm 3's cover
  of the stored pieces, one read per covering piece, a slice of its sorted
  payload — and differ only in how they reorganize the pieces a select
  touched, so a strategy with an :class:`IntervalIndex` is its adaptation
  rule ``_adapt`` (segmentation: Algorithm 1; replication: Algorithms 4, 2
  and 5) plus, optionally, a wave rule ``_adapt_wave``.  A strategy without
  an index (the NoSegm baseline) answers through its own ``_execute`` and
  ``select_many`` falls back to one ``select`` per member.
* :func:`batch_bounds_arrays` — shared validation for ``select_many``'s
  bounds (mirrors :class:`~repro.core.ranges.ValueRange`).
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
from repro.util.sorted_search import sorted_probe


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
    """The template every strategy extends: construction, the query frame, the read path.

    It is the one strategy contract the BPM and every other layer hold.
    Subclasses set :attr:`strategy_name` (the registry key),
    :attr:`requires_model` (whether construction needs a segmentation model)
    and :attr:`display_short` (the label fragment used in the paper's plots),
    start their ``__init__`` with ``super().__init__(...)`` and provide
    ``storage_bytes``, ``segment_count`` and ``check_invariants``.  A strategy
    that keeps an :attr:`index` then implements only :meth:`_adapt` (and, to
    adapt a wave otherwise than member by member, :meth:`_adapt_wave`); one
    without an index implements :meth:`_execute`.  ``history`` is always a
    :class:`QueryLog`: one record per ``select`` and per indexed
    ``select_many``.  The public doors — :meth:`select` and
    :meth:`select_many` — must not be overridden: each opens the one query
    frame and runs the read path inside it, so every strategy's ``history``
    holds the same kind of record, written the same way.
    """

    #: Registry key; empty means "abstract, do not register".
    strategy_name: ClassVar[str] = ""
    #: Whether :func:`create_strategy` must be given a segmentation model.
    requires_model: ClassVar[bool] = True
    #: Label fragment in the paper's style ("Segm", "Repl", "NoSegm").
    display_short: ClassVar[str] = ""

    #: The interval index over the stored pieces: the read path's cover and
    #: the router's cost probe.  ``None`` for a strategy that keeps no pieces.
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
        #: The most bytes the column held at the end of any query (Figures 8/9).
        self.peak_storage_bytes = self.total_bytes
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

        The caller runs the read path under ``try`` / ``finally:
        self.accountant.detach()`` and then hands the record to
        :meth:`_close_frame`; a read that raises leaves no record behind.
        """
        # Positional, in QueryStats' field order; batch_size is the last field.
        stats = QueryStats(self._queries_executed, low, high)
        stats.batch_size = batch_size
        self.accountant.attach(stats)
        return stats

    def _close_frame(self, stats: QueryStats, result_count: int) -> None:
        """Complete the record and append it to ``history``."""
        stats.result_count = result_count
        stats.segment_count = self.segment_count
        stats.storage_bytes = self.storage_bytes
        self.peak_storage_bytes = max(self.peak_storage_bytes, stats.storage_bytes)
        self._queries_executed += stats.batch_size
        self.history.append(stats)

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

    def select_many(self, bounds: Sequence[tuple[float, float]]) -> list[SelectionResult]:
        """Answer N half-open range selections ``[low_i, high_i)`` at once.

        A strategy with an :attr:`index` answers the whole batch inside one
        frame (:meth:`_execute_batch`): each covering piece is read once for
        the batch, the wave rule adapts the column, and one record with
        ``batch_size == len(bounds)`` lands in :attr:`history`.  Without an
        index this is the sequential fallback — one :meth:`select` per pair,
        with the usual per-query adaptation and record.
        """
        if self.index is None:
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

    # -- the read path -------------------------------------------------------

    def _execute(self, query: ValueRange, stats: QueryStats) -> SelectionResult:
        """Answer ``query`` from its cover, adapting after each covering piece.

        The query is clipped to the domain; each piece is read once and
        sliced, then :meth:`_adapt` runs on it.  The phases are timed back to
        back, so the cover walk counts as selection.
        """
        self._before_read(stats)
        now, record_read = self._now, self.accountant.record_read
        started = now()
        domain = self.domain
        if query.low < domain.low or query.high > domain.high:
            query = query.intersect(domain)
        parts: list[SelectionResult] = []
        for piece in self.index.cover(query.low, query.high):
            record_read(piece.size_bytes)
            parts.append(piece.segment.select(query))
            selected = now()
            stats.selection_seconds += selected - started
            self._adapt(query, piece, stats)
            started = now()
            stats.adaptation_seconds += started - selected
        result = parts[0] if len(parts) == 1 else SelectionResult.concatenate(parts, self.dtype)
        stats.selection_seconds += now() - started
        return result

    def _execute_batch(
        self, lows: np.ndarray, highs: np.ndarray, stats: QueryStats
    ) -> list[SelectionResult]:
        """Answer a batch in one read pass, then adapt it with :meth:`_adapt_wave`.

        Each distinct piece of the clipped members' covers is read once and
        answers its members in value order: a member containing the piece
        takes the whole payload, a lone partial member two scalar probes,
        several share one ``bounds_many``.  Segments are never mutated, so
        the slices outlive the adaptation.
        """
        self._before_read(stats)
        now = self._now
        started = now()
        lows = np.maximum(lows, self.domain.low)
        highs = np.minimum(highs, self.domain.high)
        low_list, high_list = lows.tolist(), highs.tolist()
        cover = self.index.cover
        covers = [cover(low, high) for low, high in zip(low_list, high_list)]
        members: dict[Any, list[int]] = {}
        for q, pieces in enumerate(covers):
            for piece in pieces:
                members.setdefault(piece, []).append(q)
        # Value order, so each member's parts follow its own disjoint cover.
        touched = sorted(members.items(), key=lambda item: item[0].vrange.low)
        record_read = self.accountant.record_read
        parts: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in covers]
        for piece, positions in touched:
            record_read(piece.size_bytes)
            segment = piece.segment
            piece_low, piece_high = piece.vrange.low, piece.vrange.high
            values, oids = segment.values, segment.oids
            partial: list[int] = []
            for q in positions:
                if low_list[q] <= piece_low and high_list[q] >= piece_high:
                    parts[q].append((values, oids))
                else:
                    partial.append(q)
            if len(partial) == 1:  # two scalar probes beat a probe batch of one
                q = partial[0]
                lo, hi = sorted_probe(values, low_list[q]), sorted_probe(values, high_list[q])
                parts[q].append((values[lo:hi], oids[lo:hi]))
            elif partial:
                los, his = segment.bounds_many(lows[partial], highs[partial])
                for q, lo, hi in zip(partial, los.tolist(), his.tolist()):
                    parts[q].append((values[lo:hi], oids[lo:hi]))
        selected = now()
        stats.selection_seconds += selected - started

        self._adapt_wave(low_list, high_list, covers, touched, stats)
        started = now()
        stats.adaptation_seconds += started - selected

        results = [SelectionResult.from_slices(q_parts, self.dtype) for q_parts in parts]
        stats.selection_seconds += now() - started
        return results

    # -- per-strategy hooks --------------------------------------------------

    def _before_read(self, stats: QueryStats) -> None:
        """Run at the top of each read, inside the frame (default: nothing)."""

    def _adapt(self, query: ValueRange, piece: Any, stats: QueryStats) -> None:
        """The adaptation rule: reorganize after ``piece`` answered ``query``."""
        raise NotImplementedError

    def _adapt_wave(self, lows: list[float], highs: list[float], covers: list[list],
                    touched: list[tuple[Any, list[int]]], stats: QueryStats) -> None:
        """The wave rule: by default each member in turn, exactly as N selects would.

        Member ``q`` is ``[lows[q], highs[q])`` clipped, read through
        ``covers[q]``; ``touched`` lists each covering piece, in value order,
        with the members it answered.  A member adapts on its cover as it
        stands then: the read pass's while the index generation is unchanged.
        """
        index = self.index
        generation = index.generation
        for low, high, cover in zip(lows, highs, covers):
            if high <= low:
                continue
            query = ValueRange(low, high)
            if index.generation != generation:
                cover = index.cover(low, high)
            for piece in cover:
                self._adapt(query, piece, stats)
            # The peak N selects would record, one closed frame per member.
            self.peak_storage_bytes = max(self.peak_storage_bytes, self.storage_bytes)

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
    **options: Any,
) -> AdaptiveColumnBase:
    """Instantiate the strategy ``name`` over ``values``.

    ``model`` is forwarded only to strategies that declare
    ``requires_model=True`` (and is then mandatory).  Remaining keyword
    options are forwarded when the strategy's constructor accepts them;
    ``None``-valued unknown options are dropped so callers can pass a
    uniform option set for every strategy (e.g. ``storage_budget=None``),
    and a non-``None`` option the constructor does not know is an error.
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
        elif value is not None:
            raise TypeError(
                f"strategy {cls.strategy_name!r} does not accept option {key!r}"
            )
    return cls(values, **kwargs)

"""The Bat Partition Manager (BPM).

The BPM owns the adaptive columns (segmented or replicated) that have been
registered for self-organization, and exposes the ``bpm.*`` MAL module the
segment optimizer's rewritten plans call at run time:

.. code-block:: text

    Y1 := bpm.take("sys", "p", "ra");
    Y2 := bpm.new();
    barrier rseg := bpm.newIterator(Y1, A0, A1, true, true);
    T1 := algebra.select(rseg, A0, A1, true, true);
    bpm.addSegment(Y2, T1);
    redo rseg := bpm.hasMoreElements(Y1, A0, A1, true, true);
    exit rseg;
    X14 := bpm.result(Y2);

``bpm.newIterator`` runs the adaptive column's range selection — which is
where adaptation (splitting / replica materialization) is piggy-backed — and
hands the plan the qualifying piece, so the downstream plan shape matches the
paper's §3.1 snippet.  The selection answers the block's bounds exactly, so
there is never a second piece; the delta-free lowering
(:mod:`repro.optimizer.delta_elision`) calls the same selection as
``X14 := bpm.select(Y1, A0, A1, true, true)`` with no block around it.

The BPM is the engine's one door to an adapting selection — ``bpm.select`` for
one query, :meth:`BatPartitionManager.select_many` for a batch, and for a
wave's snapshot readers :meth:`~BatPartitionManager.pin` /
:meth:`~BatPartitionManager.select_pinned` /
:meth:`~BatPartitionManager.absorb` — and its one seconds ledger: the doors
that run on the owning thread add the selection / adaptation seconds of
exactly the ``QueryStats`` records they caused to two running totals, and the
executor reads a query's share as a before/after of those totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.accounting import QueryStats
from repro.core.models import SegmentationModel
from repro.core.segment import SelectionResult
from repro.core.strategy import AdaptiveColumnStrategy, create_strategy
from repro.storage.bat import BAT
from repro.storage.catalog import Catalog
from repro.util.half_open import half_open_in_domain, half_open_in_domain_many


@dataclass
class AdaptiveColumnHandle:
    """A registered adaptive column plus the bookkeeping the BPM needs."""

    table: str
    column: str
    strategy: str
    adaptive: AdaptiveColumnStrategy

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.column}"


class BatPartitionManager:
    """Owns adaptive columns and implements the ``bpm`` MAL module."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._handles: dict[tuple[str, str], AdaptiveColumnHandle] = {}
        #: The seconds ledger: what every selection made through this manager
        #: spent selecting / adapting, summed from the records it caused.
        self.total_selection_seconds = 0.0
        self.total_adaptation_seconds = 0.0

    # -- administration -------------------------------------------------------

    def enable(
        self,
        table: str,
        column: str,
        *,
        strategy: str,
        values: np.ndarray,
        model: SegmentationModel | None = None,
        domain: tuple[float, float] | None = None,
        storage_budget: float | None = None,
        **options: Any,
    ) -> AdaptiveColumnHandle:
        """Hand a column over to the BPM with the chosen registered strategy.

        ``strategy`` is resolved through the strategy registry
        (:mod:`repro.core.strategy`); extra keyword options are forwarded to
        the strategy constructor when it accepts them.
        """
        key = (table, column)
        if key in self._handles:
            raise ValueError(f"column {table}.{column} is already adaptive")
        adaptive = create_strategy(
            strategy,
            values,
            model=model,
            domain=domain,
            storage_budget=storage_budget,
            **options,
        )
        strategy_name = str(adaptive.strategy_name).strip().lower()
        handle = AdaptiveColumnHandle(
            table=table, column=column, strategy=strategy_name, adaptive=adaptive
        )
        # Register with the catalog first so a rejection leaves no half state.
        self.catalog.register_adaptive(table, column, strategy_name)
        self._handles[key] = handle
        return handle

    def disable(self, table: str, column: str) -> None:
        """Return a column to its plain positional organisation."""
        self._handles.pop((table, column), None)
        self.catalog.unregister_adaptive(table, column)

    def handle(self, table: str, column: str) -> AdaptiveColumnHandle:
        """Look up the handle of an adaptive column."""
        try:
            return self._handles[(table, column)]
        except KeyError as exc:
            raise KeyError(f"column {table}.{column} is not managed by the BPM") from exc

    def handles(self) -> list[AdaptiveColumnHandle]:
        """All registered adaptive columns."""
        return list(self._handles.values())

    def is_managed(self, table: str, column: str) -> bool:
        """True when the column is managed by the BPM."""
        return (table, column) in self._handles

    # -- MAL module implementation -----------------------------------------------

    def mal_module(self) -> dict[str, Any]:
        """The ``bpm`` module functions to register with the MAL registry."""
        return {
            "take": self._mal_take,
            "select": self._mal_select,
            "new": self._mal_new,
            "newIterator": self._mal_new_iterator,
            "hasMoreElements": self._mal_has_more_elements,
            "addSegment": self._mal_add_segment,
            "result": self._mal_result,
        }

    def _mal_take(self, ctx, schema: str, table: str, column: str) -> AdaptiveColumnHandle:
        return self.handle(table, column)

    @staticmethod
    def _mal_new(ctx) -> list[BAT]:
        return []

    def _mal_new_iterator(
        self, ctx, handle: AdaptiveColumnHandle, low, high, include_low=True, include_high=False
    ) -> BAT | None:
        piece = self._mal_select(ctx, handle, low, high, include_low, include_high)
        return piece if piece.count else None

    @staticmethod
    def _mal_has_more_elements(ctx, handle: AdaptiveColumnHandle, *bounds) -> None:
        return None  # the first piece was the whole answer

    @staticmethod
    def _mal_add_segment(ctx, accumulator: list[BAT], piece: BAT) -> list[BAT]:
        accumulator.append(piece)
        return accumulator

    @staticmethod
    def _mal_result(ctx, accumulator: list[BAT]) -> BAT:
        if not accumulator:
            return BAT.from_pairs(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if len(accumulator) == 1:
            # The common converged case: one qualifying piece, no copy.
            return accumulator[0]
        heads = np.concatenate([piece.head for piece in accumulator])
        tails = np.concatenate([piece.tail for piece in accumulator])
        return BAT.from_pairs(heads, tails)

    # -- the piggy-backed selection ------------------------------------------------

    def _mal_select(
        self, ctx, handle: AdaptiveColumnHandle, low, high, include_low=True, include_high=False
    ) -> BAT:
        """Run the adaptive selection; the qualifying ``(oid, value)`` pairs.

        The one select-and-account implementation behind ``bpm.select`` and
        ``bpm.newIterator``; the result is a candidate list (oids in the
        head).  Segment-backed strategies promise sorted values
        (SelectionResult.values_sorted), so the iterator block's inner
        algebra.select binary-searches the piece; unsorted results leave the
        flag off and take the mask path — correct either way.
        """
        adaptive = handle.adaptive
        records = adaptive.history.records
        recorded = len(records)
        result = adaptive.select(
            *half_open_in_domain(adaptive.domain, low, high, include_low, include_high)
        )
        self._charge(records, recorded)
        return BAT.from_pairs(result.oids, result.values, tail_sorted=result.values_sorted)

    def select_many(
        self, table: str, column: str, sql_bounds: Sequence[tuple[float, float, bool, bool]]
    ) -> list[SelectionResult]:
        """Answer a batch of SQL ``(low, high, include_low, include_high)`` bounds.

        The N-member counterpart of ``bpm.select``: the bounds are translated
        into the column's domain at once and answered by the strategy's
        ``select_many``, with adaptation piggy-backed on the batch.
        """
        adaptive = self.handle(table, column).adaptive
        records = adaptive.history.records
        recorded = len(records)
        results = adaptive.select_many(half_open_in_domain_many(adaptive.domain, sql_bounds))
        self._charge(records, recorded)
        return results

    # -- snapshot reads: pin and absorb on the owning thread, select on readers --------

    def pin(self, table: str, column: str) -> tuple[AdaptiveColumnStrategy, Any] | None:
        """A pinned snapshot of ``table.column``, or ``None`` without snapshot reads."""
        handle = self._handles.get((table, column))
        if handle is None or not getattr(handle.adaptive, "supports_snapshot_reads", False):
            return None
        return handle.adaptive, handle.adaptive.pin_snapshot()

    @staticmethod
    def select_pinned(pinned, low, high, include_low=True, include_high=False) -> np.ndarray:
        """The oids answering one SQL bound on a :meth:`pin`; adapts and charges nothing."""
        adaptive, snapshot = pinned
        bounds = half_open_in_domain(adaptive.domain, low, high, include_low, include_high)
        return adaptive.select_readonly(*bounds, snapshot).oids

    def absorb(self, pinned: tuple[AdaptiveColumnStrategy, Any]) -> None:
        """Adapt to the reads made on ``pinned``: one record, charged to the ledger."""
        adaptive = pinned[0]
        records = adaptive.history.records
        recorded = len(records)
        adaptive.absorb_reads()
        self._charge(records, recorded)

    def _charge(self, records: list[QueryStats], recorded: int) -> None:
        """Add the seconds of the records appended since ``recorded`` to the ledger."""
        for stats in records[recorded:]:
            self.total_selection_seconds += stats.selection_seconds
            self.total_adaptation_seconds += stats.adaptation_seconds

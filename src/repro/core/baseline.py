"""Baseline: the conventional, positionally organised column.

The paper's prototype experiments compare the adaptive schemes against a
non-segmented MonetDB column ("NoSegm" in Figures 10–16): every range
selection scans the entire column.  This class mirrors the adaptive columns'
interface (``select``, ``history``, accounting) so the harness can treat all
strategies uniformly.

Unlike the adaptive strategies, the baseline deliberately does **not** adopt
the sorted zero-copy segment layout: it keeps the payload in positional
(load) order and answers every query with a boolean-mask full scan, so its
wall-clock ``selection_seconds`` keeps modelling the unsegmented scan the
paper uses as the experimental control.
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import IOAccountant, QueryStats
from repro.core.ranges import ValueRange
from repro.core.segment import SelectionResult, Segment
from repro.core.strategy import AdaptiveColumnBase, register_strategy


@register_strategy
class UnsegmentedColumn(AdaptiveColumnBase):
    """A column stored as one positional array; selections always full-scan."""

    strategy_name = "unsegmented"
    requires_model = False
    display_short = "NoSegm"

    def __init__(
        self,
        values: np.ndarray,
        *,
        oids: np.ndarray | None = None,
        domain: tuple[float, float] | None = None,
        accountant: IOAccountant | None = None,
        time_phases: bool = True,
    ) -> None:
        super().__init__(values, domain=domain, accountant=accountant, time_phases=time_phases)
        # Positional payload — the baseline never reorganises or sorts.
        self._values = values = np.asarray(values)
        if oids is None:
            self._oids = np.arange(values.size, dtype=np.int64)
        else:
            self._oids = np.asarray(oids, dtype=np.int64)
            if self._oids.size != values.size:
                raise ValueError(
                    f"values and oids must have equal length, "
                    f"got {values.size} and {self._oids.size}"
                )
        self._segment_view: Segment | None = None

    @property
    def segment_count(self) -> int:
        """Always one: the whole column."""
        return 1

    @property
    def segments(self) -> list[Segment]:
        """A one-segment view of the column (built once, cached).

        The returned :class:`Segment` follows the sorted layout and owns a
        private copy of the payload — mutating it cannot reach the live
        positional arrays.  The baseline never reorganizes, so the cached
        view never needs invalidating.
        """
        if self._segment_view is None:
            self._segment_view = Segment(self.domain, self._values.copy(), self._oids.copy())
        return [self._segment_view]

    @property
    def storage_bytes(self) -> float:
        """Bytes used for the column payload."""
        return self.total_bytes

    def _execute(self, query: ValueRange, stats: QueryStats) -> SelectionResult:
        """Answer ``low <= value < high`` with a full column scan."""
        self.accountant.record_read(self.total_bytes)
        started = self._now()
        mask = (self._values >= query.low) & (self._values < query.high)
        result = SelectionResult(self._values[mask], self._oids[mask])
        stats.selection_seconds = self._now() - started
        return result

    def check_invariants(self) -> None:
        """The baseline has a single invariant: its payload matches its domain."""
        if self._values.size and not bool(
            np.all((self._values >= self.domain.low) & (self._values < self.domain.high))
        ):
            raise AssertionError("unsegmented column holds values outside its domain")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnsegmentedColumn(bytes={self.total_bytes:g})"

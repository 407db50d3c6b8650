"""Result containers and derived series for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.accounting import QueryLog
from repro.util.units import KB


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate measurements of one run (one strategy/model/workload)."""

    queries: int
    total_reads_bytes: float
    total_writes_bytes: float
    average_read_bytes: float
    average_read_kb: float
    final_segment_count: int
    final_storage_bytes: float
    peak_storage_bytes: float
    total_selection_seconds: float
    total_adaptation_seconds: float


@dataclass
class ExperimentResult:
    """Everything one simulated run produced.

    ``label`` identifies the run in the paper's terms (e.g. ``"APM Repl"``),
    ``log`` holds the per-query records, and the helper methods derive the
    exact series plotted in the figures.
    """

    label: str
    strategy: str
    model: str
    workload: str
    log: QueryLog
    column_bytes: float
    metadata: dict = field(default_factory=dict)

    # -- series (the figures) ---------------------------------------------

    def cumulative_writes(self) -> list[float]:
        """Cumulative memory writes due to segment materialization (Fig 5/6)."""
        return self.log.cumulative("writes_bytes")

    def reads_series(self) -> list[float]:
        """Per-query memory reads in bytes (Fig 7)."""
        return self.log.series("reads_bytes")

    def storage_series(self) -> list[float]:
        """Replica storage after each query in bytes (Fig 8/9)."""
        return self.log.series("storage_bytes")

    # -- aggregates (the tables) ----------------------------------------------

    def summary(self) -> MetricsSummary:
        """Aggregate metrics for tables such as Table 1."""
        records = list(self.log)
        queries = len(records)
        total_reads = sum(r.reads_bytes for r in records)
        total_writes = sum(r.writes_bytes for r in records)
        average_read = total_reads / queries if queries else 0.0
        storage = [r.storage_bytes for r in records] or [self.column_bytes]
        return MetricsSummary(
            queries=queries,
            total_reads_bytes=total_reads,
            total_writes_bytes=total_writes,
            average_read_bytes=average_read,
            average_read_kb=average_read / KB,
            final_segment_count=int(records[-1].segment_count) if records else 1,
            final_storage_bytes=storage[-1],
            peak_storage_bytes=max(storage),
            total_selection_seconds=sum(r.selection_seconds for r in records),
            total_adaptation_seconds=sum(r.adaptation_seconds for r in records),
        )

    def average_read_kb(self) -> float:
        """Average per-query read size in KB (the Table 1 metric)."""
        return self.summary().average_read_kb

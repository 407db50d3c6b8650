"""I/O and time accounting for the self-organizing techniques.

The paper's simulation (§6.1) reports *memory writes due to segment
materialization* and *memory reads*, both in bytes; the prototype experiments
(§6.2) report per-query *adaptation* and *selection* times.  This module
provides the counters and per-query records that every adaptive column
implementation in :mod:`repro.core` feeds, and that the benchmark harness
turns into the paper's figures and tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class QueryStats:
    """Per-query measurement record.

    Attributes mirror the quantities reported in the evaluation section:
    bytes read from segments, bytes written for segment materialization,
    the number of qualifying values returned, the segment count after the
    query, the total replica storage after the query (replication only), and
    the wall-clock split between selection work and adaptation work.
    """

    index: int
    low: float
    high: float
    reads_bytes: float = 0.0
    writes_bytes: float = 0.0
    result_count: int = 0
    segment_count: int = 0
    storage_bytes: float = 0.0
    selection_seconds: float = 0.0
    adaptation_seconds: float = 0.0
    segments_scanned: int = 0
    splits_performed: int = 0
    replicas_materialized: int = 0
    segments_dropped: int = 0
    #: Number of member queries this record covers.  1 for the per-query
    #: paths; the batched ``select_many`` kernels append one record per
    #: *batch* (their access statistics are genuinely shared), so consumers
    #: averaging per-query cost divide by this.
    batch_size: int = 1

    @property
    def total_seconds(self) -> float:
        """Wall-clock time attributed to this query (selection + adaptation)."""
        return self.selection_seconds + self.adaptation_seconds


@dataclass
class IOAccountant:
    """Running byte counters shared by one adaptive column.

    ``record_read``/``record_write`` are called by the column implementations
    for every segment scan and every segment materialization.  The optional
    ``current`` query record receives the same increments, so per-query series
    and global totals always agree.
    """

    total_reads_bytes: float = 0.0
    total_writes_bytes: float = 0.0
    current: QueryStats | None = None

    def record_read(self, n_bytes: float) -> None:
        """Account ``n_bytes`` read from a segment."""
        if n_bytes < 0:
            raise ValueError(f"read size must be non-negative, got {n_bytes}")
        self.total_reads_bytes += n_bytes
        if self.current is not None:
            self.current.reads_bytes += n_bytes
            self.current.segments_scanned += 1

    def record_write(self, n_bytes: float) -> None:
        """Account ``n_bytes`` written while materializing a segment."""
        if n_bytes < 0:
            raise ValueError(f"write size must be non-negative, got {n_bytes}")
        self.total_writes_bytes += n_bytes
        if self.current is not None:
            self.current.writes_bytes += n_bytes

    def attach(self, stats: QueryStats) -> None:
        """Route subsequent increments into ``stats`` as well as the totals."""
        self.current = stats

    def detach(self) -> None:
        """Stop routing increments into a per-query record."""
        self.current = None


@dataclass
class QueryLog:
    """Chronological list of :class:`QueryStats` for one experiment run."""

    records: list[QueryStats] = field(default_factory=list)

    def append(self, stats: QueryStats) -> None:
        self.records.append(stats)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, item):
        return self.records[item]

    # -- series used by the benchmark harness ---------------------------

    def series(self, attribute: str) -> list[float]:
        """Per-query series of ``attribute`` (e.g. ``"reads_bytes"``)."""
        return [getattr(record, attribute) for record in self.records]

    def cumulative(self, attribute: str) -> list[float]:
        """Cumulative series of ``attribute`` (Figures 5, 6, 11, 13, 15)."""
        total = 0.0
        out: list[float] = []
        for record in self.records:
            total += getattr(record, attribute)
            out.append(total)
        return out

    def average(self, attribute: str) -> float:
        """Mean of ``attribute`` over all recorded queries (Table 1)."""
        if not self.records:
            return 0.0
        return sum(getattr(record, attribute) for record in self.records) / len(self.records)

"""Range queries and query streams (workloads)."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.core.ranges import ValueRange


@dataclass(frozen=True)
class RangeQuery:
    """A range-selection predicate ``low <= value < high``.

    This is the only query shape the paper's evaluation uses ("select ...
    where ra between a and b"); the engine layer additionally supports
    projections and aggregates over the qualifying tuples.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"query high must be >= low, got [{self.low}, {self.high})")

    @property
    def vrange(self) -> ValueRange:
        """The query as a :class:`ValueRange`."""
        return ValueRange(self.low, self.high)

    @property
    def width(self) -> float:
        """Extent of the query range in domain units."""
        return self.high - self.low


@dataclass
class Workload:
    """An ordered stream of range queries plus descriptive metadata."""

    name: str
    queries: list[RangeQuery]
    domain: tuple[float, float]
    selectivity: float | None = None
    description: str = ""
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[RangeQuery]:
        return iter(self.queries)

    def __getitem__(self, item):
        return self.queries[item]

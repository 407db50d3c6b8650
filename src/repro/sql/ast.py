"""Abstract syntax for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass


class Placeholder(float):
    """A ``?`` or ``:name`` placeholder awaiting a client-supplied binding.

    Carries no value (the float payload is NaN, which defeats every parse-time
    range comparison — validation happens at bind time instead), and the SQL
    compiler emits a reference to the MAL variable ``name`` (``__p<index>``)
    for it instead of a constant.  ``index`` is the 0-based binding position
    in textual order; ``key`` is the client-facing handle: the same ``index``
    for positional ``?`` style, the bare name for ``:name`` style (one name
    may appear at several positions).
    """

    __slots__ = ("name", "index", "key")

    def __new__(cls, index: int, key: "int | str") -> "Placeholder":
        placeholder = super().__new__(cls, float("nan"))
        placeholder.name = f"__p{index}"
        placeholder.index = index
        placeholder.key = key
        return placeholder

    def __repr__(self) -> str:
        return f"Placeholder({self.key!r}@{self.index})"


@dataclass(frozen=True)
class RangePredicate:
    """``column BETWEEN low AND high`` (or an equivalent pair of comparisons)."""

    column: str
    low: float
    high: float
    include_low: bool = True
    include_high: bool = True

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(
                f"range predicate on {self.column!r} has high < low: {self.high} < {self.low}"
            )


@dataclass(frozen=True)
class ComparisonPredicate:
    """A single-sided comparison ``column <op> value``."""

    column: str
    operator: str
    value: float

    _VALID = ("<", "<=", ">", ">=", "=", "<>")

    def __post_init__(self) -> None:
        if self.operator not in self._VALID:
            raise ValueError(f"unsupported comparison operator {self.operator!r}")


@dataclass(frozen=True)
class Aggregate:
    """An aggregate projection such as ``SUM(col)`` or ``COUNT(*)``."""

    function: str
    column: str | None  # None for COUNT(*)

    _VALID = ("sum", "count", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.function not in self._VALID:
            raise ValueError(f"unsupported aggregate {self.function!r}")
        if self.function != "count" and self.column is None:
            raise ValueError(f"{self.function}() requires a column argument")

    @property
    def label(self) -> str:
        """The output column name."""
        return f"{self.function}({self.column or '*'})"


@dataclass(frozen=True)
class SelectStatement:
    """A parsed ``SELECT`` over a single table.

    Exactly one of ``columns`` / ``aggregates`` is non-empty.
    """

    table: str
    columns: tuple[str, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()
    predicates: tuple[RangePredicate | ComparisonPredicate, ...] = ()
    limit: int | None = None

    def __post_init__(self) -> None:
        if bool(self.columns) == bool(self.aggregates):
            raise ValueError("a SELECT must project either columns or aggregates (not both)")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"LIMIT must be non-negative, got {self.limit}")

    @property
    def is_aggregate(self) -> bool:
        """True for aggregate queries (``SUM``/``COUNT``/...)."""
        return bool(self.aggregates)

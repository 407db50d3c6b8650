"""Query parameterization: lifting range literals into plan parameters.

The paper's evaluation workloads (Figures 5–7, the SkyServer traces) issue
thousands of range selections that differ *only* in their bound constants, so
a plan cache keyed on literal SQL text is cold on almost every query.  This
module extracts the numeric literals of a parsed statement into named
parameters (``__p0``, ``__p1``, ...) and masks them out of the text — the
cache key — so all queries that differ only in their constants share a single
compiled plan and only the parameter values change per execution.

Literals are lifted into positional :class:`Placeholder` parameters — the
lifted statement is exactly what parsing the literal-masked text in prepared
mode yields, so the text path and the client API's ``?`` statements share one
binding template, one cached plan and one runner.  The SQL compiler recognises
the :class:`Parameter` base class and emits a MAL variable reference instead
of baking the literal into the plan.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, replace
from decimal import Decimal
from numbers import Real
from typing import Any, Sequence

import numpy as np

from repro.sql.ast import (
    ComparisonPredicate,
    Parameter,
    Placeholder,
    RangePredicate,
    SelectStatement,
)
from repro.sql.parser import NUMBER_PATTERN

__all__ = [
    "BindError",
    "BindingSpec",
    "Parameter",
    "ParameterizedQuery",
    "Placeholder",
    "mask_literals",
    "parameter_names",
    "parameterize",
    "prepared_binding",
]

#: A numeric literal as the tokenizer would lex it.  The first two lookbehinds
#: mirror the tokenizer's greedy identifier consumption: a digit or sign
#: directly attached to an identifier or another number never starts a fresh
#: literal, and neither does the digit after such a sign (``and-5`` lexes as
#: ``and``, ``-5``; masking only the ``5`` would bind the wrong value).  The
#: third leaves a ``LIMIT`` count in the text: it is part of the plan, not a
#: bound (normalized text has exactly one space after the keyword).
_LITERAL_PATTERN = re.compile(rf"(?<![\w.])(?<![\w.][-+])(?<!limit ){NUMBER_PATTERN}")


@dataclass(frozen=True)
class ParameterizedQuery:
    """One statement split into its lifted form and its parameter values.

    ``statement`` is the parsed statement with every range literal replaced by
    a positional :class:`Placeholder`; ``arguments`` maps parameter names to
    this query's literals in placeholder order, so
    ``tuple(arguments.values())`` is the binding of ``statement``.
    """

    statement: SelectStatement
    arguments: dict[str, float]


def parameterize(statement: SelectStatement) -> ParameterizedQuery:
    """Split ``statement`` into its lifted form and its literal parameter values."""
    arguments: dict[str, float] = {}

    def lift(value: float) -> Placeholder:
        index = len(arguments)
        arguments[f"__p{index}"] = float(value)
        return Placeholder(index, index)

    predicates: list[RangePredicate | ComparisonPredicate] = []
    for predicate in statement.predicates:
        if isinstance(predicate, RangePredicate):
            predicates.append(
                replace(predicate, low=lift(predicate.low), high=lift(predicate.high))
            )
        else:
            predicates.append(replace(predicate, value=lift(predicate.value)))
    return ParameterizedQuery(
        statement=replace(statement, predicates=tuple(predicates)),
        arguments=arguments,
    )


def mask_literals(normalized_sql: str) -> tuple[str, tuple[float, ...]]:
    """Replace the bound literals in normalized SQL with ``?``; return the values.

    This is the parse-free route to a cached plan: two statements whose
    masked texts are equal differ only in their bound values, which map onto
    parameters ``__p0``, ``__p1``, ... in textual order — the exact order
    :func:`parameterize` assigns them — and the masked text is the normalized
    ``?`` text of the same statement.  Texts whose lexing would diverge from
    the tokenizer (adjacent number lexemes) never parse successfully in this
    grammar, so their masked keys are never installed and they fall through to
    the full parse path with its usual errors.
    """
    values: list[float] = []

    def replace_literal(match: re.Match) -> str:
        values.append(float(match.group()))
        return "?"

    masked = _LITERAL_PATTERN.sub(replace_literal, normalized_sql)
    return masked, tuple(values)


class BindError(ValueError):
    """A parameter binding that cannot be applied to a prepared statement.

    Raised at *bind time* — wrong arity, non-numeric or NaN values, a named
    binding for a positional statement (or vice versa), or range bounds with
    ``high < low``.  The client API maps it onto ``ProgrammingError``.
    """


@dataclass(frozen=True)
class BindingSpec:
    """How client-supplied parameters map onto a prepared statement's slots.

    ``style`` is ``"qmark"`` (positional ``?``), ``"named"`` (``:name``) or
    ``"none"`` (no placeholders); ``keys`` holds, per placeholder position,
    the client-facing key (the position itself for qmark, the lowercased name
    for named — one name may cover several positions).  ``range_checks``
    carries the ``high >= low`` validations the skipped parser would have
    performed: per range predicate a ``(low_slot, low_const, high_slot,
    high_const)`` tuple where a slot of ``-1`` means the bound is the baked
    constant next to it.
    """

    style: str
    keys: tuple[int | str, ...]
    range_checks: tuple[tuple[int, float, int, float], ...]

    @property
    def count(self) -> int:
        """Number of placeholder positions to bind."""
        return len(self.keys)

    def bind(self, parameters: Any) -> tuple[float, ...]:
        """Validate ``parameters`` and return one float per placeholder position."""
        if self.style == "named":
            values = self._bind_named(parameters)
        else:
            values = self._bind_positional(parameters)
        for low_slot, low_const, high_slot, high_const in self.range_checks:
            low = values[low_slot] if low_slot >= 0 else low_const
            high = values[high_slot] if high_slot >= 0 else high_const
            if high < low:
                raise BindError(
                    f"range parameters violate high >= low: {high} < {low}"
                )
        return values

    def _bind_positional(self, parameters: Any) -> tuple[float, ...]:
        if parameters is None:
            parameters = ()
        if isinstance(parameters, Mapping):
            raise BindError(
                "statement uses positional '?' placeholders; "
                "got a named parameter mapping"
            )
        # Any sized, indexable container works — tuples, lists, numpy arrays
        # (which are not abc.Sequence) — but not a bare scalar, a string, or
        # an unordered container (a set would bind in hash order).
        if (
            isinstance(parameters, (str, bytes))
            or not hasattr(parameters, "__len__")
            or not hasattr(parameters, "__getitem__")
        ):
            raise BindError(
                f"parameters must be an ordered sequence, got {type(parameters).__name__}"
            )
        if len(parameters) != self.count:
            raise BindError(
                f"statement takes {self.count} parameter(s), got {len(parameters)}"
            )
        return tuple(self._coerce(value, key) for key, value in zip(self.keys, parameters))

    def _bind_named(self, parameters: Any) -> tuple[float, ...]:
        if not isinstance(parameters, Mapping):
            raise BindError(
                "statement uses named ':name' placeholders; "
                f"got {type(parameters).__name__} instead of a mapping"
            )
        supplied: dict[str, Any] = {}
        for key, value in parameters.items():
            lowered = str(key).lower()
            if lowered in supplied:
                raise BindError(
                    f"parameter {lowered!r} supplied more than once "
                    "(names are case-insensitive)"
                )
            supplied[lowered] = value
        expected = set(self.keys)
        missing = expected - supplied.keys()
        if missing:
            raise BindError(f"missing named parameter(s): {sorted(missing)}")
        extra = supplied.keys() - expected
        if extra:
            raise BindError(f"unknown named parameter(s): {sorted(extra)}")
        return tuple(self._coerce(supplied[key], key) for key in self.keys)

    @staticmethod
    def _coerce(value: Any, key: int | str) -> float:
        # Exact float/int first: the abc registry walk behind ``Real`` costs
        # about a microsecond per value, which a batch of bindings feels.
        # Real covers int/float and the numpy scalar types; Decimal is the
        # DB-API's standard exact-numeric type and converts losslessly enough
        # for range bounds.  Booleans are deliberately not range bounds.
        if type(value) is not float and type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, (Real, Decimal)):
                raise BindError(
                    f"parameter {key!r} must be numeric, got {type(value).__name__}"
                )
        number = float(value)
        if math.isnan(number):
            raise BindError(f"parameter {key!r} is NaN; range bounds must be ordered")
        return number

    def bind_many(self, seq_of_parameters: Sequence[Any]) -> list[tuple[float, ...]]:
        """Validate a whole batch of bindings, vectorized when homogeneous.

        Semantically identical to ``[self.bind(p) for p in seq]``: the fast
        path only engages for positional batches whose every value is an
        exact Python ``float``/``int`` (anything else — mappings, Decimals,
        numpy scalars, booleans — falls back to the per-member path and its
        exact error messages), and any vectorized validation failure re-runs
        the per-member path so the first offending binding raises.
        """
        seq = list(seq_of_parameters)
        try:
            homogeneous = self.style == "qmark" and bool(seq) and all(
                type(value) is float or type(value) is int
                for parameters in seq
                for value in parameters
            )
        except TypeError:  # a non-iterable member: let bind() raise its error
            homogeneous = False
        if homogeneous:
            try:
                array = np.asarray(seq, dtype=np.float64)
            except (TypeError, ValueError):
                array = None
            if array is not None and array.ndim == 2 and array.shape[1] == self.count:
                ok = not bool(np.isnan(array).any())
                for low_slot, low_const, high_slot, high_const in self.range_checks:
                    if not ok:
                        break
                    lows = array[:, low_slot] if low_slot >= 0 else low_const
                    highs = array[:, high_slot] if high_slot >= 0 else high_const
                    ok = not bool(np.any(highs < lows))
                if ok:
                    return [tuple(row) for row in array.tolist()]
        return [self.bind(parameters) for parameters in seq]


def prepared_binding(statement: SelectStatement) -> BindingSpec:
    """Derive the :class:`BindingSpec` of a placeholder-parsed statement."""
    placeholders: list[Placeholder] = []
    range_checks: list[tuple[int, float, int, float]] = []

    def note(value: float) -> None:
        if isinstance(value, Placeholder):
            placeholders.append(value)

    def check_part(value: float) -> tuple[int, float]:
        if isinstance(value, Placeholder):
            return value.index, 0.0
        return -1, float(value)

    for predicate in statement.predicates:
        if isinstance(predicate, RangePredicate):
            note(predicate.low)
            note(predicate.high)
            if isinstance(predicate.low, Placeholder) or isinstance(
                predicate.high, Placeholder
            ):
                range_checks.append((*check_part(predicate.low), *check_part(predicate.high)))
        else:
            note(predicate.value)
    placeholders.sort(key=lambda placeholder: placeholder.index)
    if [placeholder.index for placeholder in placeholders] != list(range(len(placeholders))):
        raise BindError("placeholder positions are not contiguous")  # pragma: no cover
    if not placeholders:
        style = "none"
    elif isinstance(placeholders[0].key, int):
        style = "qmark"
    else:
        style = "named"
    return BindingSpec(
        style=style,
        keys=tuple(placeholder.key for placeholder in placeholders),
        range_checks=tuple(range_checks),
    )


def parameter_names(statement: SelectStatement) -> tuple[str, ...]:
    """The parameter names referenced by a parameterized statement, in order."""
    names: list[str] = []
    for predicate in statement.predicates:
        if isinstance(predicate, RangePredicate):
            values = (predicate.low, predicate.high)
        else:
            values = (predicate.value,)
        for value in values:
            if isinstance(value, Parameter) and value.name not in names:
                names.append(value.name)
    return tuple(names)

"""Tiny argument-validation helpers shared across the public API.

They raise early with a message naming the offending argument, which keeps
constructors in the core package short and their error behaviour uniform.
"""

from __future__ import annotations


def ensure_positive(name: str, value: float, *, allow_zero: bool = False) -> float:
    """Raise :class:`ValueError` unless ``value`` is positive (or >= 0)."""
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def ensure_in_range(name: str, value: float, low: float, high: float) -> float:
    """Raise :class:`ValueError` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value

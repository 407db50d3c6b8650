"""Byte-unit helpers.

The paper expresses all segmentation-model bounds (``Mmin``/``Mmax``) and all
storage curves in bytes (KB/MB).  These helpers keep the conversions explicit
and readable at call sites, e.g. ``AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)``.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

_SUFFIXES = (
    (GB, "GB"),
    (MB, "MB"),
    (KB, "KB"),
)


def format_bytes(n_bytes: float) -> str:
    """Render a byte count with a human-friendly suffix.

    >>> format_bytes(3 * 1024)
    '3.0KB'
    >>> format_bytes(512)
    '512B'
    """
    if n_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {n_bytes}")
    for factor, suffix in _SUFFIXES:
        if n_bytes >= factor:
            return f"{n_bytes / factor:.1f}{suffix}"
    return f"{int(n_bytes)}B"

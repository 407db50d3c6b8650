"""Binary-search probes over sorted payloads, without dtype promotion.

``np.searchsorted(int_array, float_probe)`` silently promotes the *whole*
array to ``float64`` before searching — an O(n) cast that turns a two-probe
range selection back into a scan.  The paper's simulation columns are int32,
so the sorted zero-copy kernels route every probe through
:func:`sorted_probe`, which translates a float probe into an equivalent
integer probe for integer payloads (an O(log n) search on the original
array) and falls back to plain ``searchsorted`` otherwise.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sorted_probe", "sorted_probe_many"]

#: ``(min, max)`` of each integer payload dtype seen, so a probe looks its
#: bounds up instead of building an ``np.iinfo`` per call.
_INT_BOUNDS: dict[np.dtype, tuple[int, int]] = {}


def _int_bounds(dtype: np.dtype) -> tuple[int, int]:
    """``(min, max)`` of the integer ``dtype``, cached in :data:`_INT_BOUNDS`."""
    info = np.iinfo(dtype)
    bounds = _INT_BOUNDS[dtype] = (int(info.min), int(info.max))
    return bounds


def sorted_probe(values: np.ndarray, value: float, side: str = "left") -> int:
    """``np.searchsorted`` for one scalar probe, avoiding integer→float casts.

    ``side="left"`` returns the first index with ``values[i] >= value``;
    ``side="right"`` the first index with ``values[i] > value`` — identical
    to ``np.searchsorted`` semantics.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    # dtype.kind instead of np.issubdtype: same signed/unsigned-integer test,
    # but a plain attribute check — this runs per probe on the query hot path.
    if values.dtype.kind in "iu" and math.isfinite(value):
        # Translate the float probe to the equivalent integer probe: the
        # first integer i with i >= value (left) or i > value (right).
        if side == "left":
            target = math.ceil(value)
        else:
            target = math.floor(value) + 1
        dtype = values.dtype
        low, high = _INT_BOUNDS.get(dtype) or _int_bounds(dtype)
        if target <= low:
            return 0
        if target > high:
            return int(values.size)
        return int(values.searchsorted(dtype.type(target), side="left"))
    # The method, not ``np.searchsorted``: the same search without the two
    # Python-level dispatch frames in front of it.
    return int(values.searchsorted(value, side=side))


def sorted_probe_many(values: np.ndarray, probes: np.ndarray, side: str = "left") -> np.ndarray:
    """``np.searchsorted`` for an *array* of probes, avoiding integer→float casts.

    The batch counterpart of :func:`sorted_probe`: one numpy call answers every
    probe, so N range selections against one sorted payload cost O(few) numpy
    dispatches instead of N.  Per-probe semantics are identical to
    :func:`sorted_probe` (and therefore to ``np.searchsorted``), including the
    integer translation of float probes and the saturation of probes outside
    the payload dtype's representable range (``±inf`` probes land on ``0`` /
    ``values.size``).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    probes = np.asarray(probes, dtype=np.float64)
    if values.dtype.kind in "iu":
        # Same translation as the scalar path: the first integer i with
        # i >= probe (left) or i > probe (right), saturated at the dtype
        # bounds so the cast below cannot wrap around.
        if side == "left":
            targets = np.ceil(probes)
        else:
            targets = np.floor(probes) + 1.0
        low, high = _INT_BOUNDS.get(values.dtype) or _int_bounds(values.dtype)
        # ``float(high)`` rounds *up* to 2**63 for int64, so a target equal
        # to it would overflow the cast below; treat it as past-the-end then.
        limit = float(high)
        overflow = targets >= limit if int(limit) > high else targets > limit
        safe = np.clip(targets, float(low), None)
        safe = np.where(overflow, float(low), safe)
        positions = np.searchsorted(values, safe.astype(values.dtype), side="left")
        positions[overflow] = values.size
        return positions
    return np.searchsorted(values, probes, side=side)

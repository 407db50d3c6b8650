"""Merge per-replica observability counters into fleet totals.

Every server fronts a :class:`~repro.cluster.Router` — a single engine is a
fleet of one — so its ``cache_stats()`` always has one shape: the engine's
``batch`` / ``total`` counters summed across replicas, plus a ``replicas``
list carrying the per-replica breakdown.  The merge rules are plain:

* counters (hits, misses, waves, …) add;
* ``min``/``max`` take the elementwise min/max;
* ratios (``hit_ratio``, ``mean``) are **recomputed from the merged
  counters**, never averaged — averaging ratios over different volumes is
  how dashboards lie;
* ``capacity`` adds (the fleet really holds N caches) while ``generation``
  reports the replica-0 value (replicas advance in lockstep through DDL
  fan-out).
"""

from __future__ import annotations

from typing import Any

__all__ = ["merge_cache_stats"]


def _merge_batch(batches: list[dict[str, Any]]) -> dict[str, Any]:
    merged = {
        key: sum(batch.get(key, 0) for batch in batches)
        for key in ("waves", "batched_queries", "fallback_queries")
    }
    sizes = [batch.get("wave_size", {}) for batch in batches]
    mins = [size.get("min") for size in sizes if size.get("min") is not None]
    maxs = [size.get("max") for size in sizes if size.get("max") is not None]
    merged["wave_size"] = {
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "mean": merged["batched_queries"] / merged["waves"] if merged["waves"] else 0.0,
    }
    histogram: dict[Any, int] = {}
    for batch in batches:
        for bucket, count in batch.get("wave_size_histogram", {}).items():
            histogram[bucket] = histogram.get(bucket, 0) + count
    merged["wave_size_histogram"] = histogram
    return merged


def merge_cache_stats(per_replica: list[dict[str, Any]]) -> dict[str, Any]:
    """Fleet-wide :meth:`Database.cache_stats` from per-replica snapshots.

    The result keeps the single-engine shape (``batch`` / ``total``) with
    counters summed, and adds ``replicas`` — the unmodified per-replica
    snapshots, in replica order.
    """
    if not per_replica:
        raise ValueError("merge_cache_stats needs at least one replica snapshot")
    totals = [snapshot.get("total", {}) for snapshot in per_replica]
    merged_total = {
        key: sum(total.get(key, 0) for total in totals)
        for key in ("hits", "misses", "evictions", "invalidations", "size", "capacity")
    }
    lookups = merged_total["hits"] + merged_total["misses"]
    merged_total["hit_ratio"] = merged_total["hits"] / lookups if lookups else 0.0
    merged_total["generation"] = totals[0].get("generation", 0)
    return {
        "batch": _merge_batch([snapshot.get("batch", {}) for snapshot in per_replica]),
        "total": merged_total,
        "replicas": list(per_replica),
    }

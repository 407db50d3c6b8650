"""Typed knobs: one ``knobs()`` / ``set_knobs()`` surface over the tunables.

The paper's adaptive layer reacts per query; the constants that govern it —
APM split thresholds, the replication storage budget, the snapshot-reader
pool, the admission batch window, the router's hot-query threshold — are
gathered in :mod:`repro.tuning.knobs` as a typed registry an operator reads
and sets (``Database.knobs`` / ``set_knobs``, the ADMIN ``knobs`` /
``set_knobs`` ops, fanned out over a routed fleet).
"""

from repro.tuning.knobs import (
    KnobRegistry,
    KnobSpec,
    admission_knobs,
    database_knobs,
    read_workers_spec,
    router_knobs,
    server_knob_registry,
)

__all__ = [
    "KnobRegistry",
    "KnobSpec",
    "admission_knobs",
    "database_knobs",
    "read_workers_spec",
    "router_knobs",
    "server_knob_registry",
]

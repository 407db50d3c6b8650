"""Typed knobs: one table and one ``set_knobs()`` over the tunables.

The paper's adaptive layer reacts per query; the constants that govern it —
APM split thresholds, the replication storage budget, the admission batch
window, the router's hot-query threshold — are
the rows of one declarative table in :mod:`repro.tuning.knobs`, which an
operator reads and sets (``Database.knobs`` / ``set_knobs``, the ADMIN
``knobs`` / ``set_knobs`` ops, fanned out over a routed fleet).
"""

from repro.tuning.knobs import KNOBS, Knob, knob_table, set_knobs

__all__ = ["KNOBS", "Knob", "knob_table", "set_knobs"]

"""The knob table: one row per tunable, one validate-then-apply path.

The adaptive layers' constants — the APM split thresholds, the replication
storage budget, the router's hot-query threshold, the admission window and
queue caps — are the rows of :data:`KNOBS`: a name, a layer, bounds and the
attribute each writes on its owner.  :func:`knob_table` reads them and
:func:`set_knobs` moves them; both back ``Database.knobs`` / ``set_knobs``
and the ADMIN ``knobs`` / ``set_knobs`` wire ops.  Nothing moves a knob on
its own: an operator sets it.

Thread-safety: a storage-model knob mutates live adaptive state, so it is
written on the engine's owner thread — the caller's for a ``Database``, each
routable replica's worker for a ``Router``.  Router and admission knobs are
attributes read afresh per route / flush, written on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.models import AdaptivePageModel
from repro.util.units import KB

__all__ = ["KNOBS", "Knob", "knob_table", "set_knobs"]


@dataclass(frozen=True)
class Knob:
    """One row: identity, bounds, and the ``attribute`` it writes on each carrier.

    ``owner`` names the carriers: ``"apm"`` every APM model, ``"budget"`` every budgeted
    replication column, ``"router"`` / ``"admission"``.
    """

    name: str
    layer: str  # "storage-model" | "cluster" | "server"
    owner: str
    attribute: str
    default: float
    low: float
    high: float
    integer: bool
    description: str


KNOBS: tuple[Knob, ...] = (
    Knob("apm_m_min", "storage-model", "apm", "m_min", 3 * KB, 0.25 * KB, 64 * KB, False,
         "APM lower split threshold: segments are never split below this size "
         "(smaller = finer layout, less over-read, more segments)"),
    Knob("apm_m_max", "storage-model", "apm", "m_max", 12 * KB, 1 * KB, 256 * KB, False,
         "APM upper split threshold: segments larger than this always split when touched"),
    Knob("replication_storage_budget", "storage-model", "budget", "storage_budget",
         0.0, 0.0, 0.0, False,  # default and bounds come from the columns: see _bounded
         "replication storage budget (this repo's rule; the paper leaves it as future "
         "work): a query's replicas are built only if they fit, otherwise it partitions "
         "the covering piece (larger = more replicas beside their sources, more memory)"),
    Knob("hot_query_threshold", "cluster", "router", "hot_query_threshold",
         0.5, 0.05, 1.0, False,
         "traffic share above which a query cluster spreads round-robin over every "
         "replica instead of sticking to its home"),
    Knob("batch_window_us", "server", "admission", "batch_window_us",
         250.0, 0.0, 10_000.0, False,
         "how long the first request of a wave waits for company "
         "(larger = bigger waves/throughput, worse idle latency)"),
    Knob("max_inflight", "server", "admission", "max_inflight", 1024, 1, 65_536, True,
         "bounded-queue backpressure: queued requests before submissions error or wait"),
    Knob("max_wave", "server", "admission", "max_wave", 256, 1, 4_096, True,
         "batch-size cap: the most members one wave may carry (per replica)"),
)

#: ``(run, carriers)``: ``run(fn, *args)`` calls ``fn`` on the thread that owns ``carriers``.
_Target = tuple[Callable[..., Any], list[Any]]


def _here(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def _carriers(knob: Knob, database: Any) -> list[Any]:
    """The knob's carriers on one engine; the largest budgeted column first, so it is read."""
    columns = [handle.adaptive for handle in database.bpm.handles()]
    if knob.owner == "apm":
        return [column.model for column in columns
                if isinstance(getattr(column, "model", None), AdaptivePageModel)]
    budgeted = [column for column in columns if getattr(column, "storage_budget", None) is not None]
    return sorted(budgeted, key=lambda column: column.total_bytes, reverse=True)


def _targets(knob: Knob, fleet: Any, admission: Any) -> list[_Target]:
    """Where ``knob`` lives on ``fleet`` (a Database or a Router); empty if nowhere."""
    replicas = getattr(fleet, "replicas", None)
    if knob.owner == "router":
        return [] if replicas is None else [(_here, [fleet])]
    if knob.owner == "admission":
        return [] if admission is None else [(_here, [admission])]
    if replicas is None:  # one engine, owned by the caller
        engines = [(fleet, _here)]
    else:  # the fleet's policy moves in lockstep, each replica on its worker
        engines = [(r.database, r.run) for r in replicas if r.health.routable]
    targets = [(run, _carriers(knob, database)) for database, run in engines]
    return [(run, carriers) for run, carriers in targets if carriers]


def _bounded(knob: Knob, targets: list[_Target]) -> Knob:
    """The budget row off the largest column: default its enabled budget, from its size up."""
    if knob.owner != "budget":
        return knob
    columns = [column for _, carriers in targets for column in carriers]
    low = float(columns[0].total_bytes)
    enabled = [float(column.enabled_budget) for column in columns]
    return replace(knob, default=enabled[0], low=low, high=max(4.0 * low, *enabled))


def _rows(fleet: Any, admission: Any) -> dict[str, tuple[Knob, list[_Target]]]:
    rows = {}
    for knob in KNOBS:
        if targets := _targets(knob, fleet, admission):
            rows[knob.name] = (_bounded(knob, targets), targets)
    return rows


def _value(knob: Knob, targets: list[_Target]) -> float:
    return float(getattr(targets[0][1][0], knob.attribute))


def _write(knob: Knob, carriers: list[Any], value: float) -> None:
    cast = int if knob.integer else float
    for carrier in carriers:
        setattr(carrier, knob.attribute, cast(value))


def knob_table(fleet: Any, *, admission: Any | None = None) -> list[dict[str, Any]]:
    """One row per knob ``fleet`` (a Database or a Router) carries, with its live value.

    Router and admission rows need a router; a storage-model row, a column that carries it.
    """
    return [
        {"name": knob.name, "layer": knob.layer, "default": knob.default, "low": knob.low,
         "high": knob.high, "integer": knob.integer, "value": _value(knob, targets),
         "description": knob.description}
        for knob, targets in _rows(fleet, admission).values()
    ]


def set_knobs(
    fleet: Any, values: dict[str, Any], *, admission: Any | None = None
) -> dict[str, float]:
    """Validate ``values`` as one batch, then apply it; returns the new knob vector.

    All-or-nothing: bounds, integrality and ``apm_m_min < apm_m_max`` are checked
    against the prospective vector before anything is written.  A knob already at
    its value is not written, so ``set_knobs(knobs())`` moves nothing.
    """
    rows = _rows(fleet, admission)
    coerced = {}
    for name, value in values.items():
        if name not in rows:
            raise KeyError(f"unknown knob {name!r} (known: {', '.join(rows) or '<none>'})")
        knob = rows[name][0]
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"knob {name}: not a number: {value!r}") from None
        if not knob.low <= value <= knob.high:
            raise ValueError(f"knob {name}: {value:g} outside [{knob.low:g}, {knob.high:g}]")
        coerced[name] = float(int(round(value))) if knob.integer else value
    live = {name: _value(*row) for name, row in rows.items()}
    vector = live | coerced
    if "apm_m_min" in vector and vector["apm_m_min"] >= vector["apm_m_max"]:
        raise ValueError(f"apm_m_min must stay below apm_m_max "
                         f"({vector['apm_m_min']:g} >= {vector['apm_m_max']:g})")
    for name, value in coerced.items():
        if value == live[name]:
            continue
        knob, targets = rows[name]
        for run, carriers in targets:
            run(_write, knob, carriers, value)
    return {name: _value(*row) for name, row in rows.items()}

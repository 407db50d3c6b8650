"""The typed knob registry: one surface over the engine's scattered tunables.

Every adaptive layer grew its own constants — the APM split thresholds in
:mod:`repro.core.models`, the replication storage budget in
:mod:`repro.core.replication`, the admission window and queue caps in
:mod:`repro.server.admission`, the routing thresholds in
:mod:`repro.cluster.router`.  A :class:`KnobSpec` wraps each one with its
layer, bounds and read/apply callbacks; a :class:`KnobRegistry` collects
them behind ``knobs()`` / ``set_knobs()``, which back ``Database.knobs`` /
``set_knobs`` and the ADMIN ``knobs`` / ``set_knobs`` wire ops.  Nothing
moves a knob on its own: an operator sets them.

Thread-safety: applying an engine-layer knob mutates live adaptive state, so
it must run on the thread that owns the engine — :meth:`Database.set_knobs`
on its caller's, and :func:`server_knob_registry` on each replica's own
worker.  Router- and admission-layer knobs are plain attribute stores read
afresh on every route / flush, so applying them from the server's admin
thread is benign.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

from repro.util.units import KB

__all__ = [
    "KnobRegistry",
    "KnobSpec",
    "admission_knobs",
    "database_knobs",
    "read_workers_spec",
    "router_knobs",
    "server_knob_registry",
]


@dataclass(frozen=True)
class KnobSpec:
    """One tunable: identity, bounds and live accessors.

    ``read`` returns the current live value; ``apply`` writes a validated
    value into the owning component.
    """

    name: str
    layer: str  # "storage-model" | "engine" | "cluster" | "server"
    default: float
    low: float
    high: float
    read: Callable[[], float]
    apply: Callable[[float], None]
    integer: bool = False
    description: str = ""

    def coerce(self, value: Any) -> float:
        """Validate ``value`` against the bounds (and integrality)."""
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"knob {self.name}: not a number: {value!r}") from None
        if not self.low <= value <= self.high:
            raise ValueError(
                f"knob {self.name}: {value:g} outside [{self.low:g}, {self.high:g}]"
            )
        return float(int(round(value))) if self.integer else value

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "layer": self.layer,
            "default": self.default,
            "low": self.low,
            "high": self.high,
            "integer": self.integer,
            "value": float(self.read()),
            "description": self.description,
        }


class KnobRegistry:
    """An ordered collection of :class:`KnobSpec` plus cross-knob constraints."""

    def __init__(self) -> None:
        self._specs: dict[str, KnobSpec] = {}
        self._constraints: list[Callable[[dict[str, float]], None]] = []

    def register(self, spec: KnobSpec) -> KnobSpec:
        if spec.name in self._specs:
            raise ValueError(f"knob {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def register_constraint(self, check: Callable[[dict[str, float]], None]) -> None:
        """Add a cross-knob validator called with the *prospective* full vector."""
        self._constraints.append(check)

    def merge(self, other: "KnobRegistry") -> "KnobRegistry":
        """Fold another registry's specs and constraints into this one."""
        for spec in other.specs():
            self.register(spec)
        self._constraints.extend(other._constraints)
        return self

    def specs(self) -> list[KnobSpec]:
        return list(self._specs.values())

    def spec(self, name: str) -> KnobSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(self._specs) or "<none>"
            raise KeyError(f"unknown knob {name!r} (known: {known})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def knobs(self) -> dict[str, float]:
        """The current live value of every registered knob."""
        return {name: float(spec.read()) for name, spec in self._specs.items()}

    def set_knobs(self, values: dict[str, Any]) -> dict[str, float]:
        """Validate and apply ``values``; returns the new full knob vector.

        All-or-nothing: every value is validated (bounds, integrality and
        cross-knob constraints, e.g. ``apm_m_min < apm_m_max``) against the
        prospective merged vector *before* anything is applied, so a rejected
        batch leaves the engine untouched.
        """
        coerced = {
            name: self.spec(name).coerce(value) for name, value in values.items()
        }
        prospective = self.knobs()
        prospective.update(coerced)
        for check in self._constraints:
            check(prospective)
        for name, value in coerced.items():
            self._specs[name].apply(value)
        return self.knobs()

    def table(self) -> list[dict[str, Any]]:
        """Per-knob description rows (the README table / ``knobs`` admin op)."""
        return [spec.describe() for spec in self._specs.values()]


# ---------------------------------------------------------------------------
# Collectors: one builder per layer
# ---------------------------------------------------------------------------


def _apm_models(database: Any) -> list[Any]:
    """Every APM-family model instance managed by ``database`` (in BPM order)."""
    from repro.core.models import AdaptivePageModel

    return [
        handle.adaptive.model
        for handle in database.bpm.handles()
        if isinstance(getattr(handle.adaptive, "model", None), AdaptivePageModel)
    ]


def _budgeted_columns(database: Any) -> list[Any]:
    """Every managed replication column with a finite storage budget."""
    return [
        handle.adaptive
        for handle in database.bpm.handles()
        if getattr(handle.adaptive, "storage_budget", None) is not None
    ]


def _snapshot_capable(database: Any) -> bool:
    """Whether any managed column can serve snapshot-isolated reads."""
    return any(
        getattr(handle.adaptive, "supports_snapshot_reads", False)
        for handle in database.bpm.handles()
    )


def database_knobs(database: Any) -> KnobRegistry:
    """The storage-model knobs of one engine's managed adaptive columns.

    Knobs appear only when a column that carries them is registered: the APM
    bound pair when any managed column runs an APM-family split model, the
    storage budget when any replication column was given one.  A knob applies
    to *every* matching column — the registry models the engine's policy, not
    one column's — and takes effect on the next selection (no plan-cache
    interaction: compiled plans never bake the thresholds in).
    """
    registry = KnobRegistry()
    models = _apm_models(database)
    if models:
        lead = models[0]

        def _set_m_min(value: float, models=models) -> None:
            for model in models:
                model.m_min = float(value)

        def _set_m_max(value: float, models=models) -> None:
            for model in models:
                model.m_max = float(value)

        registry.register(KnobSpec(
            name="apm_m_min",
            layer="storage-model",
            default=3 * KB,
            low=0.25 * KB,
            high=64 * KB,
            read=lambda lead=lead: lead.m_min,
            apply=_set_m_min,
            description="APM lower split threshold: segments are never split "
                        "below this size (smaller = finer layout, less "
                        "over-read, more segments)",
        ))
        registry.register(KnobSpec(
            name="apm_m_max",
            layer="storage-model",
            default=12 * KB,
            low=1 * KB,
            high=256 * KB,
            read=lambda lead=lead: lead.m_max,
            apply=_set_m_max,
            description="APM upper split threshold: segments larger than this "
                        "always split when touched",
        ))

        registry.register_constraint(_apm_order_constraint)

    budgeted = _budgeted_columns(database)
    if budgeted:
        lead_column = budgeted[0]
        floor = max(column.total_bytes for column in budgeted)

        def _set_budget(value: float, columns=budgeted) -> None:
            for column in columns:
                column.storage_budget = max(float(value), column.total_bytes)

        registry.register(KnobSpec(
            name="replication_storage_budget",
            layer="storage-model",
            default=float(lead_column.storage_budget),
            low=float(floor),
            high=float(floor) * 4.0,
            read=lambda lead_column=lead_column: float(lead_column.storage_budget),
            apply=_set_budget,
            description="replication storage budget (this repo's rule; the "
                        "paper leaves it as future work): a query's replicas "
                        "are built only if they fit, otherwise it partitions "
                        "the covering piece (larger = more replicas beside "
                        "their sources, more memory)",
        ))

    if _snapshot_capable(database):
        registry.register(read_workers_spec(database))
    return registry


def read_workers_spec(database: Any) -> KnobSpec:
    """The ``read_workers`` knob of ``database``.

    The one rule for the reader fan-out: ``set_knobs`` validates against it
    and so does ``ReproServer(read_workers=...)``, the door behind the
    server's ``--read-workers`` flag.
    """

    def _set_read_workers(value: float) -> None:
        database.read_workers = int(value)

    return KnobSpec(
        name="read_workers",
        layer="engine",
        default=1,
        low=1,
        high=8,
        integer=True,
        read=lambda: float(database.read_workers),
        apply=_set_read_workers,
        description="snapshot-reader pool size: how many threads "
                    "execute_wave fans read-only members across against "
                    "pinned index snapshots (1 = fully serialized; the "
                    "adaptation path always stays single-threaded)",
    )


def router_knobs(router: Any) -> KnobRegistry:
    """The routing knobs of a :class:`~repro.cluster.Router`."""

    def _set_threshold(value: float) -> None:
        router.hot_query_threshold = float(value)

    registry = KnobRegistry()
    registry.register(KnobSpec(
        name="hot_query_threshold",
        layer="cluster",
        default=0.5,
        low=0.05,
        high=1.0,
        read=lambda: router.hot_query_threshold,
        apply=_set_threshold,
        description="traffic share above which a query cluster spreads "
                    "round-robin over every replica instead of sticking to "
                    "its home",
    ))
    return registry


def admission_knobs(admission: Any) -> KnobRegistry:
    """The server-layer knobs of an :class:`~repro.server.AdmissionController`.

    The flush loop re-reads these attributes every iteration, so a mutation
    takes effect on the very next wave without restarting the server.
    """

    def _set_window(value: float) -> None:
        admission.batch_window_us = float(value)

    def _set_inflight(value: float) -> None:
        admission.max_inflight = int(value)

    def _set_wave(value: float) -> None:
        admission.max_wave = int(value)

    registry = KnobRegistry()
    registry.register(KnobSpec(
        name="batch_window_us",
        layer="server",
        default=250.0,
        low=0.0,
        high=10_000.0,
        read=lambda: admission.batch_window_us,
        apply=_set_window,
        description="how long the first request of a wave waits for company "
                    "(larger = bigger waves/throughput, worse idle latency)",
    ))
    registry.register(KnobSpec(
        name="max_inflight",
        layer="server",
        default=1024,
        low=1,
        high=65_536,
        integer=True,
        read=lambda: admission.max_inflight,
        apply=_set_inflight,
        description="bounded-queue backpressure: queued requests before "
                    "submissions error or wait",
    ))
    registry.register(KnobSpec(
        name="max_wave",
        layer="server",
        default=256,
        low=1,
        high=4_096,
        integer=True,
        read=lambda: admission.max_wave,
        apply=_set_wave,
        description="batch-size cap: the most members one wave may carry "
                    "(per replica)",
    ))
    return registry


def server_knob_registry(router: Any, *, admission: Any | None = None) -> KnobRegistry:
    """The full knob surface of one server: its fleet's engines + router + admission.

    Each engine-layer knob fans out to every routable replica of the
    :class:`~repro.cluster.Router` (a single engine is a fleet of one), so
    the fleet's policy moves in lockstep, and each replica applies it on its
    own worker — the thread that owns its models.  The whole batch is
    validated before anything is applied.
    """
    registry = KnobRegistry()
    for replica in router.replicas:
        if not replica.health.routable:
            continue
        for spec in database_knobs(replica.database).specs():
            on_worker = partial(replica.run, spec.apply)
            if spec.name in registry:
                # Chain the lead's apply with this replica's.
                lead = registry.spec(spec.name)
                on_worker = _chain_apply(lead.apply, on_worker)
                registry._specs[spec.name] = replace(lead, apply=on_worker)
            else:
                registry.register(replace(spec, apply=on_worker))
    if "apm_m_min" in registry:
        registry.register_constraint(_apm_order_constraint)
    registry.merge(router_knobs(router))
    if admission is not None:
        registry.merge(admission_knobs(admission))
    return registry


def _apm_order_constraint(values: dict[str, float]) -> None:
    if values["apm_m_min"] >= values["apm_m_max"]:
        raise ValueError(
            f"apm_m_min must stay below apm_m_max "
            f"({values['apm_m_min']:g} >= {values['apm_m_max']:g})"
        )


def _chain_apply(
    first: Callable[[float], None], second: Callable[[float], None]
) -> Callable[[float], None]:
    def apply(value: float) -> None:
        first(value)
        second(value)

    return apply

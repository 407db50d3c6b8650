"""The typed knob registry: one surface over the engine's scattered tunables.

Every adaptive layer grew its own constants — the APM split thresholds in
:mod:`repro.core.models`, the replication storage budget in
:mod:`repro.core.replication`, the admission window and queue caps in
:mod:`repro.server.admission`, the routing thresholds in
:mod:`repro.cluster.router`.  A :class:`KnobSpec` wraps each one with its
layer, bounds, step and read/apply callbacks; a :class:`KnobRegistry`
collects them behind ``knobs()`` / ``set_knobs()`` so the what-if estimator
and the online controller (and the ADMIN ``set_knobs`` wire op) can treat
"the engine's configuration" as one typed vector.

Thread-safety: applying an engine-layer knob mutates live adaptive state, so
``set_knobs`` must run on the thread that owns the engine — the server
dispatches it on its single engine worker exactly like any other admin op.
Admission-layer knobs are plain attribute stores read afresh by the flush
loop each iteration, so crossing from the worker thread is benign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.util.units import KB

__all__ = [
    "KnobRegistry",
    "KnobSpec",
    "admission_knobs",
    "database_knobs",
    "router_knobs",
    "server_knob_registry",
]


@dataclass(frozen=True)
class KnobSpec:
    """One tunable: identity, bounds, granularity and live accessors.

    ``read`` returns the current live value; ``apply`` writes a validated
    value into the owning component.  ``step`` is the controller's move
    granularity — one proposed move changes the knob by ``±step`` (clamped
    into ``[low, high]``).
    """

    name: str
    layer: str  # "storage-model" | "engine" | "cluster" | "server"
    default: float
    low: float
    high: float
    step: float
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

    def clamp(self, value: float) -> float:
        """``value`` forced into bounds (for controller-proposed moves)."""
        value = min(max(float(value), self.low), self.high)
        return float(int(round(value))) if self.integer else value

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "layer": self.layer,
            "default": self.default,
            "low": self.low,
            "high": self.high,
            "step": self.step,
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

    def names(self) -> list[str]:
        return list(self._specs)

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

    def validate(self, values: dict[str, Any]) -> bool:
        """Whether ``values`` would be accepted by :meth:`set_knobs`."""
        try:
            coerced = {
                name: self.spec(name).coerce(value) for name, value in values.items()
            }
            prospective = self.knobs()
            prospective.update(coerced)
            for check in self._constraints:
                check(prospective)
        except (KeyError, ValueError):
            return False
        return True

    def snapshot(self) -> dict[str, float]:
        """The current vector, suitable for a later :meth:`set_knobs` rollback."""
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
            step=0.5 * KB,
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
            step=2 * KB,
            read=lambda lead=lead: lead.m_max,
            apply=_set_m_max,
            description="APM upper split threshold: segments larger than this "
                        "always split when touched",
        ))

        def _ordered(values: dict[str, float]) -> None:
            if values["apm_m_min"] >= values["apm_m_max"]:
                raise ValueError(
                    f"apm_m_min must stay below apm_m_max "
                    f"({values['apm_m_min']:g} >= {values['apm_m_max']:g})"
                )

        registry.register_constraint(_ordered)

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
            # Budget moves only matter at working-set granularity: a step a
            # quarter of the column makes one controller move change eviction
            # behaviour, instead of 50 imperceptible nudges to double it.
            step=max(float(floor) * 0.25, 32 * KB),
            read=lambda lead_column=lead_column: float(lead_column.storage_budget),
            apply=_set_budget,
            description="replication storage budget (paper §5 future work): "
                        "total replica bytes before LRU release kicks in "
                        "(larger = fewer evictions/rematerializations, more "
                        "memory)",
        ))

    if _snapshot_capable(database):

        def _set_read_workers(value: float) -> None:
            database.read_workers = int(value)

        registry.register(KnobSpec(
            name="read_workers",
            layer="engine",
            default=1,
            low=1,
            high=8,
            step=1,
            integer=True,
            read=lambda: float(database.read_workers),
            apply=_set_read_workers,
            description="snapshot-reader pool size: how many threads "
                        "execute_wave fans read-only members across against "
                        "pinned index snapshots (1 = fully serialized; the "
                        "adaptation path always stays single-threaded)",
        ))
    return registry


def router_knobs(router: Any) -> KnobRegistry:
    """The routing knobs of a :class:`~repro.cluster.Router`."""

    def _set_threshold(value: float) -> None:
        router.hot_query_threshold = float(value)

    def _set_alpha(value: float) -> None:
        router.ewma_alpha = float(value)

    registry = KnobRegistry()
    registry.register(KnobSpec(
        name="hot_query_threshold",
        layer="cluster",
        default=0.5,
        low=0.05,
        high=1.0,
        step=0.05,
        read=lambda: router.hot_query_threshold,
        apply=_set_threshold,
        description="traffic share above which a query cluster spreads "
                    "round-robin over every replica instead of sticking to "
                    "its best-fit home",
    ))
    registry.register(KnobSpec(
        name="router_ewma_alpha",
        layer="cluster",
        default=0.2,
        low=0.01,
        high=0.9,
        step=0.05,
        read=lambda: router.ewma_alpha,
        apply=_set_alpha,
        description="EWMA decay of the observed cluster-by-replica cost model "
                    "(larger = faster adaptation, noisier routing)",
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
        step=50.0,
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
        step=64,
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
        step=32,
        integer=True,
        read=lambda: admission.max_wave,
        apply=_set_wave,
        description="batch-size cap: the most members one wave may carry "
                    "(per replica)",
    ))
    return registry


def server_knob_registry(engine: Any, *, admission: Any | None = None) -> KnobRegistry:
    """The full knob surface of one server: engine + admission + router.

    ``engine`` may be a :class:`~repro.engine.database.Database` or a
    :class:`~repro.cluster.Router` (whose storage-model knobs then fan out to
    every routable replica so the fleet's policy moves in lockstep).
    """
    registry = KnobRegistry()
    replicas = getattr(engine, "replicas", None)
    if replicas is not None:  # a Router: fan engine knobs over the fleet
        fleet = KnobRegistry()
        for replica in replicas:
            if not replica.health.routable:
                continue
            for spec in database_knobs(replica.database).specs():
                if spec.name in fleet:
                    # Chain the lead's apply with this replica's.
                    lead = fleet.spec(spec.name)
                    chained = _chain_apply(lead.apply, spec.apply)
                    fleet._specs[spec.name] = KnobSpec(
                        name=lead.name, layer=lead.layer, default=lead.default,
                        low=lead.low, high=lead.high, step=lead.step,
                        read=lead.read, apply=chained, integer=lead.integer,
                        description=lead.description,
                    )
                else:
                    fleet.register(spec)
        if any(spec.name == "apm_m_min" for spec in fleet.specs()):
            fleet.register_constraint(_apm_order_constraint)
        registry.merge(fleet)
        registry.merge(router_knobs(engine))
    else:
        registry.merge(database_knobs(engine))
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

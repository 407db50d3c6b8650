"""The seeded, operation-counted fault injector.

Every fault *site* in the stack calls ``injector.fire(site, **context)`` at
the top of the operation it guards (sites are plain strings; an unarmed
injector — or an armed one with no matching spec — costs one lock-guarded
counter increment).  A :class:`FaultSpec` names a site, an optional context
``match`` (e.g. ``{"replica": 1}``), the 1-based ordinal ``at`` of the first
*matching* operation to fault, how many consecutive matching operations to
fault (``count``), and the ``action``:

``"error"``
    raise :class:`InjectedFault` (a generic worker exception)
``"crash"``
    raise :class:`InjectedCrash` (the replica "process" died mid-wave)
``"hang"``
    sleep ``delay_s`` before proceeding (a wedged or pathologically slow
    replica; pair with the admission layer's ``wave_deadline_s``)
``"drop"``
    return ``"drop"`` to the caller, which abandons its socket (client-side
    sites cannot raise usefully — the *transport* is the failure)

Sites wired up in this repository:

=====================  ====================================================
``wave.execute``       :meth:`repro.cluster.Router.execute_wave_on`, fired
                       on the target replica's worker thread with
                       ``replica=<index>`` context
``client.send``        :meth:`repro.api.aio.AsyncConnection._request`,
                       fired before each frame write with ``op=<frame
                       type>`` context
=====================  ====================================================

Determinism: firing decisions depend only on per-spec match counters — no
wall clock, no unseeded randomness.  A ``--fault-spec`` entry that gives a
``window`` instead of ``at`` draws its ordinal from the injector's seeded
RNG, so a chaos schedule is reproducible from its seed alone.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.api.exceptions import TransientError

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
    "specs_from_json",
]

#: The actions ``fire`` understands.
_ACTIONS = ("error", "crash", "hang", "drop")


class InjectedFault(TransientError):
    """A deliberately injected failure (generic worker exception)."""


class InjectedCrash(InjectedFault):
    """A deliberately injected replica crash."""


@dataclass
class FaultSpec:
    """One scheduled fault: fire ``action`` on matching operations [at, at+count)."""

    site: str
    at: int = 1
    action: str = "error"
    count: int = 1
    delay_s: float = 0.1
    match: dict[str, Any] = field(default_factory=dict)
    #: Matching operations observed so far (the spec's private ordinal clock).
    seen: int = 0
    #: How many times this spec has actually fired.
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.at < 1:
            raise ValueError(f"at is a 1-based ordinal, got {self.at}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def matches_context(self, context: dict[str, Any]) -> bool:
        return all(context.get(key) == value for key, value in self.match.items())


class FaultInjector:
    """A thread-safe schedule of deterministic faults.

    Build one explicitly (``injector.schedule("wave.execute", at=5,
    action="crash", match={"replica": 1})``), from a JSON-ready dict
    (:meth:`from_spec`, the ``--fault-spec`` CLI path; an entry may draw its
    ordinal from the seeded RNG).  Hand it to the components under test —
    :class:`~repro.cluster.Router` (``injector=``), :func:`repro.aio.connect`
    (``injector=``) — and read :attr:`log` afterwards to assert what fired.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        # Seeded without wall-clock input: schedules derived from this RNG
        # are reproducible from the seed alone.
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._specs: list[FaultSpec] = []
        self._ops: dict[str, int] = {}
        #: Every fired fault, in firing order: {site, action, ordinal, context}.
        self.log: list[dict[str, Any]] = []

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        site: str,
        *,
        at: int = 1,
        action: str = "error",
        count: int = 1,
        delay_s: float = 0.1,
        **match: Any,
    ) -> FaultSpec:
        """Arm one fault; keyword context (e.g. ``replica=1``) narrows the match."""
        spec = FaultSpec(
            site=site, at=at, action=action, count=count, delay_s=delay_s,
            match=match,
        )
        with self._lock:
            self._specs.append(spec)
        return spec

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "FaultInjector":
        """Build from a JSON-ready dict: ``{"seed": 7, "faults": [{...}, ...]}``.

        Each fault entry takes the :class:`FaultSpec` fields (``site`` is
        required); an entry may give ``window: W`` instead of ``at`` to have
        the ordinal drawn from the injector's seeded RNG — the CLI's way of
        asking for "a crash somewhere in the first W waves, reproducibly".
        """
        injector = cls(seed=int(spec.get("seed", 0)))
        for entry in spec.get("faults", ()):
            entry = dict(entry)
            site = entry.pop("site")
            match = dict(entry.pop("match", {}))
            window = entry.pop("window", None)
            if window is not None and "at" not in entry:
                entry["at"] = injector._rng.randint(1, int(window))
            injector.schedule(site, **entry, **match)
        return injector

    # -- firing ---------------------------------------------------------------

    def fire(self, site: str, **context: Any) -> str | None:
        """Count one operation at ``site``; fault it if a spec says so.

        Raises for ``error``/``crash`` actions, sleeps for ``hang``, and
        returns the action name for actions the *caller* must perform
        (``drop``).  Returns ``None`` when nothing fired.
        """
        with self._lock:
            self._ops[site] = self._ops.get(site, 0) + 1
            firing: FaultSpec | None = None
            for spec in self._specs:
                if spec.site != site or not spec.matches_context(context):
                    continue
                spec.seen += 1
                if spec.at <= spec.seen < spec.at + spec.count and firing is None:
                    spec.fired += 1
                    firing = spec
            if firing is None:
                return None
            self.log.append(
                {
                    "site": site,
                    "action": firing.action,
                    "ordinal": firing.seen,
                    "context": dict(context),
                }
            )
            delay = firing.delay_s
            action = firing.action
        # Act outside the lock: a hang must not wedge unrelated sites.
        if action == "error":
            raise InjectedFault(f"injected fault at {site} (op {context or ''})")
        if action == "crash":
            raise InjectedCrash(f"injected crash at {site} (op {context or ''})")
        if action == "hang":
            time.sleep(delay)
            return "hang"
        return action

    # -- observability --------------------------------------------------------

    @property
    def specs(self) -> list[FaultSpec]:
        with self._lock:
            return list(self._specs)

    def operations(self, site: str) -> int:
        """Total operations observed at ``site`` (fired or not)."""
        with self._lock:
            return self._ops.get(site, 0)

    def fired(self, site: str | None = None) -> int:
        """Total faults fired (optionally at one site)."""
        with self._lock:
            return sum(
                1 for entry in self.log if site is None or entry["site"] == site
            )


def specs_from_json(text: str) -> FaultInjector:
    """``--fault-spec`` helper: parse a JSON document into an armed injector."""
    return FaultInjector.from_spec(json.loads(text))

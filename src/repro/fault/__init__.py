"""Deterministic fault injection for the scale-out stack.

The fault-tolerance layer (replica health state machine, wave retry, client
reconnect) is only trustworthy if its failure paths are *exercised*, and
failure paths driven by wall-clock races make flaky tests.  This package
injects failures **deterministically**: a :class:`FaultInjector` is armed
with a schedule of :class:`FaultSpec` entries keyed on *operation counts* —
"crash replica 1's 5th wave", "drop the client socket on the 3rd send" — so
a test (or the CI chaos-smoke job) replays the exact same failure sequence
every run.  The only randomness is a seeded RNG used to *generate* schedules
(a ``--fault-spec`` entry's ``window``); firing is pure counting.

Injected failures derive from :class:`~repro.api.exceptions.TransientError`,
so the production retry/failover machinery treats them exactly like a real
infrastructure failure — which is the point.
"""

from repro.fault.injector import (
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    specs_from_json,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
    "specs_from_json",
]

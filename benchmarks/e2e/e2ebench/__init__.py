"""The end-to-end benchmark of the self-organizing column store.

Six workloads, each driving the program through its public surface only and
checking every answer against the benchmark's own copy of the data.  See
``benchmarks/e2e/README.md`` for why each workload exists and which layer is
expected to move which end-to-end metric.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from e2ebench import fleet, inprocess, server
from e2ebench.measure import Measurement

#: name -> run(seed, seconds, trace); the order is the order of a full run.
WORKLOADS: dict[str, Callable[[int, float, bool], Measurement]] = {
    **{spec.name: partial(inprocess.measure, spec) for spec in inprocess.SPECS},
    "server_pipelined": server.measure,
    "routed_fleet": fleet.measure,
}

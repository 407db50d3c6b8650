"""Experiment drivers shared by the benchmarks and the console script.

Two families of experiments exist, matching the paper's evaluation:

* **Simulation** (§6.1, Figures 5-9 and Table 1): the strategy/model grid on
  a 100 K-value integer column probed by uniform or Zipf range queries.
* **Prototype / engine** (§6.2, Figures 10-16 and Table 2): the SQL engine
  with the segment optimizer, driven by SkyServer-style 200-query workloads
  against a synthetic right-ascension column, comparing the non-segmented
  baseline against GD and two APM configurations.

Experiment sizes follow the paper by default and can be scaled down through
environment variables (useful on slow machines or in CI):

* ``REPRO_SIM_QUERIES``   — queries per simulated run (default 10000)
* ``REPRO_ENGINE_ROWS``   — rows of the synthetic SkyServer column (default 2000000)
* ``REPRO_ENGINE_QUERIES``— queries per engine workload (default 200)

Results are memoised per process so different benchmark files that need the
same run (e.g. Figure 5 and Table 1) do not repeat the work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.statistics import SegmentStatistics, segment_statistics
from repro.engine.database import Database
from repro.simulation.metrics import ExperimentResult
from repro.simulation.runner import run_grid
from repro.util.rng import DEFAULT_SEED
from repro.util.stats import moving_average
from repro.workloads.generators import uniform_workload, zipf_workload
from repro.workloads.query import Workload
from repro.workloads.skyserver import (
    PAPER_M_MAX_LARGE,
    PAPER_M_MAX_SMALL,
    PAPER_M_MIN,
    skyserver_dataset,
    skyserver_workload,
)

#: Paper-order listing of the §6.2 schemes (Figure 10's x axis).
SCHEME_ORDER = ("NoSegm", "GD", "APM 1-25", "APM 1-5")


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    return max(1, int(value))


def sim_query_count() -> int:
    """Number of queries per simulated run (paper: 10 000)."""
    return _env_int("REPRO_SIM_QUERIES", 10_000)


def engine_row_count() -> int:
    """Rows of the synthetic SkyServer column."""
    return _env_int("REPRO_ENGINE_ROWS", 2_000_000)


def engine_query_count() -> int:
    """Queries per engine workload (paper: 200)."""
    return _env_int("REPRO_ENGINE_QUERIES", 200)


# ---------------------------------------------------------------------------
# Simulation experiments (§6.1)
# ---------------------------------------------------------------------------

_SIM_CACHE: dict[tuple, dict[str, ExperimentResult]] = {}


def simulation_workload(distribution: str, selectivity: float, n_queries: int) -> Workload:
    """The §6.1 query stream over the 1 M-integer domain."""
    domain = (0.0, 1_000_000.0)
    if distribution == "uniform":
        return uniform_workload(n_queries, domain, selectivity, seed=DEFAULT_SEED)
    if distribution == "zipf":
        return zipf_workload(n_queries, domain, selectivity, seed=DEFAULT_SEED)
    raise ValueError(f"unknown simulation distribution {distribution!r}")


def simulation_grid(
    distribution: str,
    selectivity: float,
    *,
    n_queries: int | None = None,
    include_baseline: bool = False,
) -> dict[str, ExperimentResult]:
    """Run (or fetch from cache) the strategy/model grid for one workload."""
    queries = n_queries if n_queries is not None else sim_query_count()
    key = (distribution, selectivity, queries, include_baseline)
    if key not in _SIM_CACHE:
        workload = simulation_workload(distribution, selectivity, queries)
        _SIM_CACHE[key] = run_grid(
            workload, include_baseline=include_baseline, seed=DEFAULT_SEED
        )
    return _SIM_CACHE[key]


# ---------------------------------------------------------------------------
# Engine experiments (§6.2)
# ---------------------------------------------------------------------------


@dataclass
class EngineRunResult:
    """Per-query timings of one scheme on one SkyServer-style workload.

    ``splits_performed`` is the adapted column's per-query split count (empty
    for NoSegm): the adaptation work as a count that repeats exactly.
    """

    scheme: str
    workload: str
    selection_seconds: list[float] = field(default_factory=list)
    adaptation_seconds: list[float] = field(default_factory=list)
    splits_performed: list[int] = field(default_factory=list)
    segment_stats: SegmentStatistics | None = None
    column_bytes: int = 0

    @property
    def total_seconds(self) -> list[float]:
        """Per-query total time (selection + adaptation)."""
        return [s + a for s, a in zip(self.selection_seconds, self.adaptation_seconds)]

    def cumulative_ms(self) -> list[float]:
        """Cumulative query time in milliseconds (Figures 11, 13, 15)."""
        return list(np.cumsum(self.total_seconds) * 1000.0)

    def moving_average_ms(self, window: int = 20) -> list[float]:
        """Moving-average query time in milliseconds (Figures 12, 14, 16)."""
        return list(moving_average(self.total_seconds, window) * 1000.0)

    def average_ms(self, *, skip: int = 0) -> dict[str, float]:
        """Average per-query adaptation/selection milliseconds (Figure 10).

        ``skip`` ignores the first queries, matching the paper's "after the
        first 200 queries" framing when a longer run is used.
        """
        selection = self.selection_seconds[skip:]
        adaptation = self.adaptation_seconds[skip:]
        count = max(len(selection), 1)
        return {
            "selection_ms": 1000.0 * sum(selection) / count,
            "adaptation_ms": 1000.0 * sum(adaptation) / count,
            "total_ms": 1000.0 * (sum(selection) + sum(adaptation)) / count,
        }


def skyserver_schemes(column_bytes: int) -> dict[str, dict]:
    """The four §6.2 schemes with APM bounds scaled to the column size.

    The paper used Mmin = 1 MB with Mmax = 25 MB or 5 MB against a ~1 GB
    column; the same ratios are applied to our synthetic column.
    """
    scale = column_bytes / (1024**3)
    m_min = PAPER_M_MIN * scale
    return {
        "NoSegm": {"strategy": None},
        "GD": {"strategy": "segmentation", "model": "gd"},
        "APM 1-25": {
            "strategy": "segmentation",
            "model": "apm",
            "m_min": m_min,
            "m_max": PAPER_M_MAX_LARGE * scale,
        },
        "APM 1-5": {
            "strategy": "segmentation",
            "model": "apm",
            "m_min": m_min,
            "m_max": PAPER_M_MAX_SMALL * scale,
        },
    }


_ENGINE_CACHE: dict[tuple, EngineRunResult] = {}
_DATASET_CACHE: dict[int, object] = {}


def _engine_dataset(n_rows: int):
    if n_rows not in _DATASET_CACHE:
        _DATASET_CACHE[n_rows] = skyserver_dataset(n_rows, seed=DEFAULT_SEED)
    return _DATASET_CACHE[n_rows]


def _build_database(dataset) -> Database:
    database = Database()
    database.create_table("p", {"objid": "int64", "ra": "float64"})
    database.bulk_load(
        "p",
        {"objid": np.arange(dataset.ra.size, dtype=np.int64), "ra": dataset.ra},
    )
    return database


def skyserver_engine_run(
    workload_kind: str,
    scheme: str,
    *,
    n_rows: int | None = None,
    n_queries: int | None = None,
    replication: bool = False,
) -> EngineRunResult:
    """Run one scheme against one SkyServer-style workload through the engine.

    ``replication=True`` swaps adaptive segmentation for adaptive replication
    (an extension run; the paper's §6.2 only evaluates segmentation).
    """
    rows = n_rows if n_rows is not None else engine_row_count()
    queries = n_queries if n_queries is not None else engine_query_count()
    key = (workload_kind, scheme, rows, queries, replication)
    if key in _ENGINE_CACHE:
        return _ENGINE_CACHE[key]

    dataset = _engine_dataset(rows)
    database = _build_database(dataset)
    column_bytes = dataset.column_bytes
    schemes = skyserver_schemes(column_bytes)
    if scheme not in schemes:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(schemes)}")
    configuration = schemes[scheme]

    if configuration["strategy"] is not None:
        strategy = "replication" if replication else configuration["strategy"]
        kwargs = {"model": configuration["model"], "seed": DEFAULT_SEED}
        if "m_min" in configuration:
            kwargs["m_min"] = configuration["m_min"]
            kwargs["m_max"] = configuration["m_max"]
        database.enable_adaptive("p", "ra", strategy=strategy, **kwargs)

    workload = skyserver_workload(workload_kind, queries, seed=DEFAULT_SEED)
    run = EngineRunResult(scheme=scheme, workload=workload.name, column_bytes=column_bytes)
    for query in workload:
        result = database.execute(
            f"SELECT objid FROM p WHERE ra BETWEEN {float(query.low)!r} AND {float(query.high)!r}"
        )
        adaptation = result.adaptation_seconds
        selection = max(result.total_seconds - adaptation, 0.0)
        run.adaptation_seconds.append(adaptation)
        run.selection_seconds.append(selection)

    if configuration["strategy"] is not None:
        handle = database.adaptive_handle("p", "ra")
        run.segment_stats = segment_statistics(handle.adaptive)
        run.splits_performed = handle.adaptive.history.series("splits_performed")
    _ENGINE_CACHE[key] = run
    return run

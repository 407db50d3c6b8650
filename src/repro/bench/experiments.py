"""One function per paper figure/table.

Each ``figure_*`` / ``table_*`` function runs the corresponding experiment and
returns a formatted text block in the paper's shape (series sampled over the
query axis, or a table of rows).  The benchmarks in ``benchmarks/`` call these
functions through ``pytest-benchmark``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import (
    SCHEME_ORDER,
    simulation_grid,
    skyserver_engine_run,
)
from repro.bench.reporting import format_series, format_table
from repro.core.models import GaussianDice
from repro.util.units import KB


# ---------------------------------------------------------------------------
# Simulation figures (§6.1)
# ---------------------------------------------------------------------------


def figure_2() -> str:
    """Figure 2: the Gaussian Dice decision function for several sigmas."""
    xs = np.linspace(0.0, 1.0, 21)
    sigmas = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)
    rows = []
    for x in xs:
        row: dict[str, object] = {"x (ratio P/S)": round(float(x), 2)}
        for sigma in sigmas:
            row[f"sigma={sigma}"] = GaussianDice.decision_probability(float(x), sigma)
        rows.append(row)
    return format_table("Figure 2: Gaussian Dice decision probability O(x)", rows, floatfmt=".3f")


def _writes_figure(title: str, distribution: str) -> str:
    blocks = []
    for selectivity in (0.1, 0.01):
        grid = simulation_grid(distribution, selectivity)
        series = {label: result.cumulative_writes() for label, result in grid.items()}
        blocks.append(
            format_series(
                f"{title} (selectivity {selectivity})",
                series,
                unit="cumulative bytes written",
            )
        )
    return "\n\n".join(blocks)


def figure_5() -> str:
    """Figure 5: cumulative memory writes, uniform query distribution."""
    return _writes_figure("Figure 5: cumulative memory writes, uniform", "uniform")


def figure_6() -> str:
    """Figure 6: cumulative memory writes, Zipf query distribution."""
    return _writes_figure("Figure 6: cumulative memory writes, Zipf", "zipf")


def figure_7() -> str:
    """Figure 7: per-query memory reads during the first 1000 queries."""
    grid = simulation_grid("uniform", 0.1)
    series = {label: result.reads_series()[:1000] for label, result in grid.items()}
    return format_series(
        "Figure 7: memory reads, first 1000 queries (uniform, selectivity 0.1)",
        series,
        unit="bytes read per query",
        max_points=20,
    )


def table_1() -> str:
    """Table 1: average read size per query (KB) over the full run."""
    configurations = [
        ("U 0.1", "uniform", 0.1),
        ("U 0.01", "uniform", 0.01),
        ("Z 0.1", "zipf", 0.1),
        ("Z 0.01", "zipf", 0.01),
    ]
    per_strategy: dict[str, dict[str, object]] = {}
    for column_label, distribution, selectivity in configurations:
        grid = simulation_grid(distribution, selectivity)
        for strategy_label, result in grid.items():
            row = per_strategy.setdefault(strategy_label, {"Strategy": strategy_label})
            row[column_label] = result.average_read_kb()
    order = ["GD Segm", "GD Repl", "APM Segm", "APM Repl"]
    rows = [per_strategy[label] for label in order if label in per_strategy]
    return format_table(
        "Table 1: average read sizes in KB per query",
        rows,
        columns=["Strategy", "U 0.1", "U 0.01", "Z 0.1", "Z 0.01"],
    )


def _replica_storage_figure(title: str, distribution: str, first_n: int | None) -> str:
    blocks = []
    for selectivity in (0.1, 0.01):
        grid = simulation_grid(distribution, selectivity)
        series = {}
        for label in ("GD Repl", "APM Repl"):
            storage = grid[label].storage_series()
            series[label] = storage[:first_n] if first_n else storage
        column_bytes = grid["GD Repl"].column_bytes
        series["DB size"] = [column_bytes] * len(series["GD Repl"])
        blocks.append(
            format_series(
                f"{title} (selectivity {selectivity})",
                series,
                unit="replica storage bytes",
            )
        )
    return "\n\n".join(blocks)


def figure_8() -> str:
    """Figure 8: replica storage over the first 500 queries, uniform."""
    return _replica_storage_figure("Figure 8: replica storage, uniform", "uniform", 500)


def figure_9() -> str:
    """Figure 9: replica storage over the full run, Zipf."""
    return _replica_storage_figure("Figure 9: replica storage, Zipf", "zipf", None)


# ---------------------------------------------------------------------------
# Engine figures (§6.2)
# ---------------------------------------------------------------------------


def figure_10() -> str:
    """Figure 10: average adaptation vs selection time per workload and scheme."""
    blocks = []
    for workload in ("random", "skewed", "changing"):
        rows = []
        for scheme in SCHEME_ORDER:
            run = skyserver_engine_run(workload, scheme)
            averages = run.average_ms()
            rows.append(
                {
                    "Scheme": scheme,
                    "adaptation ms": averages["adaptation_ms"],
                    "selection ms": averages["selection_ms"],
                    "total ms": averages["total_ms"],
                }
            )
        blocks.append(
            format_table(
                f"Figure 10: avg time per query, {workload} workload",
                rows,
                floatfmt=".2f",
            )
        )
    return "\n\n".join(blocks)


def _time_figures(workload: str, cumulative_title: str, moving_title: str) -> str:
    cumulative = {}
    moving = {}
    for scheme in SCHEME_ORDER:
        run = skyserver_engine_run(workload, scheme)
        cumulative[scheme] = run.cumulative_ms()
        moving[scheme] = run.moving_average_ms()
    return "\n\n".join(
        [
            format_series(cumulative_title, cumulative, unit="cumulative ms"),
            format_series(moving_title, moving, unit="moving average ms"),
        ]
    )


def figure_11_12() -> str:
    """Figures 11/12: cumulative and moving-average time, random workload."""
    return _time_figures(
        "random",
        "Figure 11: cumulative time, random workload",
        "Figure 12: moving average query time, random workload",
    )


def figure_13_14() -> str:
    """Figures 13/14: cumulative and moving-average time, skewed workload."""
    return _time_figures(
        "skewed",
        "Figure 13: cumulative time, skewed workload",
        "Figure 14: moving average query time, skewed workload",
    )


def figure_15_16() -> str:
    """Figures 15/16: cumulative and moving-average time, changing workload."""
    return _time_figures(
        "changing",
        "Figure 15: cumulative time, changing workload",
        "Figure 16: moving average query time, changing workload",
    )


def table_2() -> str:
    """Table 2: segment statistics per workload and scheme."""
    rows = []
    for workload in ("random", "skewed"):
        for scheme in ("GD", "APM 1-25", "APM 1-5"):
            run = skyserver_engine_run(workload, scheme)
            stats = run.segment_stats
            if stats is None:
                continue
            rows.append(
                {
                    "Load": workload,
                    "Scheme": scheme,
                    "Segm.#": stats.segment_count,
                    "Avg size (KB)": stats.average_bytes / KB,
                    "Deviation (KB)": stats.deviation_bytes / KB,
                }
            )
    return format_table("Table 2: segment statistics", rows, floatfmt=".1f")

"""Ablation: adaptive replication under a storage budget (this repo's rule).

The paper leaves replica storage limits as future work; the budget here is
this repo's admit-or-partition rule.  A query's replicas are built only if
they fit beside what the tree holds; otherwise the covering piece is
partitioned into the pieces it answers and dropped.  With a budget, peak
replica storage stays bounded while queries remain correct, and the read per
query stays near the unbounded run's: under pressure replication turns into
segmentation locally instead of into a full scan.  NoSegm (the whole column
read by every query) is printed beside them as the yardstick.
"""

from repro.bench.reporting import format_table
from repro.core.baseline import UnsegmentedColumn
from repro.core.models import AdaptivePageModel
from repro.core.replication import ReplicatedColumn
from repro.util.units import KB
from repro.workloads.generators import make_column, uniform_workload


def _row(label: str, column) -> dict[str, object]:
    for query in uniform_workload(1500, (0, 1_000_000), 0.1, seed=5):
        column.select(query.low, query.high)
    # NoSegm never stores more than the column, so it keeps no peak.
    peak = getattr(column, "peak_storage_bytes", column.storage_bytes)
    return {
        "budget": label,
        "peak storage (KB)": peak / KB,
        "final storage (KB)": column.storage_bytes / KB,
        "avg read (KB)": column.history.average("reads_bytes") / KB,
    }


def _run(budget_factor: float | None) -> dict[str, object]:
    values = make_column(100_000, 1_000_000, seed=5)
    column_bytes = values.size * values.dtype.itemsize
    budget = None if budget_factor is None else budget_factor * column_bytes
    column = ReplicatedColumn(
        values,
        model=AdaptivePageModel(3 * KB, 12 * KB),
        storage_budget=budget,
        time_phases=False,
    )
    label = "unbounded" if budget_factor is None else f"{budget_factor:.2f}x column"
    return _row(label, column)


def _run_nosegm() -> dict[str, object]:
    return _row("NoSegm", UnsegmentedColumn(make_column(100_000, 1_000_000, seed=5), time_phases=False))


def _sweep() -> list[dict[str, object]]:
    return [_run(None), _run(1.5), _run(1.2), _run_nosegm()]


def test_ablation_storage_budget(benchmark, save_result):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    save_result("ablation_storage_budget", format_table("Ablation: replication storage budget", rows))

    unbounded, loose, tight, nosegm = rows
    assert tight["peak storage (KB)"] <= unbounded["peak storage (KB)"] * 1.05
    # A budget must not degrade the adaptive column into the scan it replaces.
    for budgeted in (loose, tight):
        assert budgeted["avg read (KB)"] < 0.5 * nosegm["avg read (KB)"], budgeted

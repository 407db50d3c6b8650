"""Figures 15/16: cumulative and moving-average query time, changing workload.

Expected shape (paper §6.2): whenever the point of query interest shifts (four
phases of 50 queries), previously untouched segments get reorganized, causing
a temporary increase of the adaptation overhead that evens out soon after.
"""

import numpy as np

from repro.bench import experiments
from repro.bench.harness import skyserver_engine_run


def test_fig15_16_changing_workload(benchmark, save_result):
    text = benchmark.pedantic(experiments.figure_15_16, rounds=1, iterations=1)
    save_result("fig15_16_changing_workload", text)

    run = skyserver_engine_run("changing", "APM 1-25")
    splits = np.asarray(run.splits_performed)
    queries_per_phase = max(len(splits) // 4, 1)
    # Each phase shift triggers fresh reorganization: the first queries of a
    # phase split more segments than the last queries of that phase.  Split
    # counts repeat exactly from run to run; adaptation seconds do not.
    for phase in range(2):
        start = phase * queries_per_phase
        head = splits[start : start + max(queries_per_phase // 4, 1)].sum()
        tail = splits[start + 3 * queries_per_phase // 4 : start + queries_per_phase].sum()
        assert head >= tail

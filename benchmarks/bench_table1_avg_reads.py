"""Table 1: average read sizes in KB per query over the whole run.

Expected shape (paper §6.1.2): with selectivity 0.1 all strategies converge to
roughly the selection size (~40 KB on the paper's column), replication sitting
slightly above segmentation; with selectivity 0.01 the APM strategies converge
to the segment-size floor set by Mmax rather than the 4 KB selection size, and
GD keeps larger segments under a uniform 0.01 workload.
"""

from repro.bench import experiments
from repro.bench.harness import simulation_grid


def test_table1_average_read_sizes(benchmark, save_result, check_grid_pins):
    text = benchmark.pedantic(experiments.table_1, rounds=1, iterations=1)
    save_result("table1_avg_reads", text)
    check_grid_pins(("uniform", 0.1), ("uniform", 0.01), ("zipf", 0.1), ("zipf", 0.01))

    uniform_01 = simulation_grid("uniform", 0.1)
    column_kb = uniform_01["APM Segm"].column_bytes / 1024.0
    selection_kb = 0.1 * column_kb
    for label, result in uniform_01.items():
        average = result.average_read_kb()
        # Converges towards the selection size, far below a full scan.
        assert average < 0.5 * column_kb, label
        assert average > 0.5 * selection_kb, label

    uniform_001 = simulation_grid("uniform", 0.01)
    # APM cannot go below its Mmax-bounded segment size; GD stays coarser.
    assert uniform_001["APM Segm"].average_read_kb() < uniform_001["GD Segm"].average_read_kb()

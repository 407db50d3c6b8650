"""Figure 9: replica-tree storage over the whole run (Zipf).

Expected shape (paper §6.1.3): the same storage decay as under a uniform load
happens, but much later — skewed queries take thousands of queries to touch
(and thereby replicate) all areas of the attribute domain — and GD releases
storage faster than APM.
"""

from repro.bench import experiments
from repro.bench.harness import simulation_grid


def test_fig09_replica_storage_zipf(benchmark, save_result, check_grid_pins):
    text = benchmark.pedantic(experiments.figure_9, rounds=1, iterations=1)
    save_result("fig09_replica_storage_zipf", text)
    check_grid_pins(("uniform", 0.1), ("zipf", 0.1), ("zipf", 0.01))

    uniform = simulation_grid("uniform", 0.1)
    zipf = simulation_grid("zipf", 0.1)
    column_bytes = zipf["APM Repl"].column_bytes

    def queries_until_shrunk(storage: list[float], threshold: float) -> int:
        for index, value in enumerate(storage):
            if value <= threshold:
                return index
        return len(storage)

    threshold = 1.15 * column_bytes
    for label in ("GD Repl", "APM Repl"):
        uniform_settle = queries_until_shrunk(uniform[label].storage_series(), threshold)
        zipf_settle = queries_until_shrunk(zipf[label].storage_series(), threshold)
        # The skewed workload needs (much) longer to replicate the whole domain.
        assert zipf_settle >= uniform_settle, label

"""Figure 8: replica-tree storage over the first 500 queries (uniform).

Expected shape (paper §6.1.3): the replica tree initially needs extra storage
(up to roughly 1.5x the column), with the biggest drops when a fully
replicated segment — eventually the original column itself — is dropped; after
a few hundred uniform queries storage shrinks back towards the column size.
GD releases storage faster than APM.
"""

from repro.bench import experiments
from repro.bench.harness import simulation_grid


def test_fig08_replica_storage_uniform(benchmark, save_result, check_grid_pins):
    text = benchmark.pedantic(experiments.figure_8, rounds=1, iterations=1)
    save_result("fig08_replica_storage_uniform", text)
    check_grid_pins(("uniform", 0.1), ("uniform", 0.01))

    grid = simulation_grid("uniform", 0.1)
    for label in ("GD Repl", "APM Repl"):
        result = grid[label]
        storage = result.storage_series()
        column_bytes = result.column_bytes
        peak = max(storage[:500])
        final = storage[min(len(storage), 500) - 1]
        assert peak > 1.2 * column_bytes, label  # replicas cost extra storage...
        assert final < peak, label  # ...and fully replicated originals get dropped
        assert final < 1.6 * column_bytes, label

"""Concurrent snapshot reads must answer exactly like the serial engine.

The contract under test: ``execute_wave`` with ``read_workers = N`` fans bound
range selects across reader threads against pinned, immutable index snapshots
while adaptation (splits, materializations, budget evictions) and knob
changes keep running on the owner thread between waves.  Whatever the
interleaving, every member's *row set* must equal the fully serialized
run's — the batched and snapshot paths may order rows differently (value
order vs load order), so results are compared as sorted row sets.

Also pinned down here, at the strategy level: an already-pinned snapshot
keeps serving the layout it was taken under after the index is swapped; a
released snapshot is actually collected (no reader-side leak); and a
replication snapshot stays readable after budget eviction ``free()``s the
live nodes whose segments it holds.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.engine.database import Database
from repro.util.units import KB

ROWS = 20_000
DOMAIN = 1_000_000.0
SQL = "select v, w from t where v >= ? and v < ?"


def _build(strategy: str) -> tuple[Database, np.ndarray]:
    rng = np.random.default_rng(17)
    values = rng.uniform(0.0, DOMAIN, ROWS)
    payload = rng.uniform(0.0, 1.0, ROWS)
    database = Database()
    database.create_table("t", {"v": "float64", "w": "float64"})
    database.bulk_load("t", {"v": values, "w": payload})
    options = {}
    if strategy == "replication":
        # A budget tight enough that eviction runs during the workload.
        options["storage_budget"] = float(values.nbytes) * 1.5
    database.enable_adaptive(
        "t", "v", strategy=strategy, model="apm", m_min=2 * KB, m_max=8 * KB,
        seed=5, **options,
    )
    return database, values


def _bounds(count: int, seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    lows = rng.uniform(0.0, DOMAIN * 0.95, count)
    spans = rng.uniform(DOMAIN * 0.01, DOMAIN * 0.05, count)
    return [(float(low), float(low + span)) for low, span in zip(lows, spans)]


def _sorted_rows(result) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((result.columns["w"], result.columns["v"]))
    return result.columns["v"][order], result.columns["w"][order]


def _run_waves(database, bounds, *, readers, wave=16, knob_pulse=None):
    prepared = database.prepare_statement(SQL)
    database.read_workers = readers  # the knob pulse may move it again, never below 2
    results = []
    for wave_index, start in enumerate(range(0, len(bounds), wave)):
        requests = [
            (prepared, prepared.binding.bind(pair))
            for pair in bounds[start : start + wave]
        ]
        results.extend(database.execute_wave(requests))
        if knob_pulse is not None:
            knob_pulse(database, wave_index)
    return results


@pytest.mark.parametrize("strategy", ["segmentation", "replication"])
def test_concurrent_readers_are_permutation_equal_to_serial(strategy):
    bounds = _bounds(192, seed=23)
    serial_db, _ = _build(strategy)
    serial = _run_waves(serial_db, bounds, readers=1)

    def pulse(database: Database, wave_index: int) -> None:
        # Mid-stream retuning on the owner thread, like the online controller:
        # layout knobs wiggle while reader threads ran the previous wave.
        if strategy == "segmentation":
            database.set_knobs({"apm_m_max": (8 if wave_index % 2 else 6) * KB})
        else:
            knobs = database.knob_registry()
            spec = knobs.spec("replication_storage_budget")
            database.set_knobs({
                "replication_storage_budget": spec.low if wave_index % 2 else spec.high,
                "read_workers": 2 + wave_index % 3,
            })

    concurrent_db, _ = _build(strategy)
    concurrent = _run_waves(concurrent_db, bounds, readers=4, knob_pulse=pulse)

    assert len(serial) == len(concurrent) == len(bounds)
    for index, (left, right) in enumerate(zip(serial, concurrent)):
        assert not isinstance(left, BaseException), left
        assert not isinstance(right, BaseException), right
        left_v, left_w = _sorted_rows(left)
        right_v, right_w = _sorted_rows(right)
        np.testing.assert_array_equal(left_v, right_v, err_msg=f"member {index} values")
        np.testing.assert_array_equal(left_w, right_w, err_msg=f"member {index} payload")
    # The adapted-under-concurrency structure is still sound.
    concurrent_db.adaptive_handle("t", "v").adaptive.check_invariants()


@pytest.mark.parametrize("strategy", ["segmentation", "replication"])
def test_snapshot_reads_interleaved_with_owner_adaptation(strategy):
    """Strategy-level check: readonly answers stay exact while select() adapts."""
    database, values = _build(strategy)
    adaptive = database.adaptive_handle("t", "v").adaptive
    for low, high in _bounds(120, seed=31):
        snap = adaptive.pin_snapshot()
        got = adaptive.select_readonly(low, high, snap)
        expected = np.sort(values[(values >= low) & (values < high)])
        np.testing.assert_array_equal(np.sort(np.asarray(got.values)), expected)
        adaptive.select(low, high)  # owner-side adaptation between reads
    adaptive.absorb_reads()
    adaptive.check_invariants()


def test_pinned_segmentation_snapshot_serves_old_layout_after_swap():
    database, values = _build("segmentation")
    adaptive = database.adaptive_handle("t", "v").adaptive
    pinned = adaptive.pin_snapshot()
    generation = pinned.generation
    for low, high in _bounds(60, seed=3):
        adaptive.select(low, high)
    assert adaptive.pin_snapshot().generation > generation, "workload did not adapt"
    assert pinned.generation == generation  # the pin never moved
    low, high = 100_000.0, 140_000.0
    stale_read = adaptive.select_readonly(low, high, pinned)
    expected = np.sort(values[(values >= low) & (values < high)])
    np.testing.assert_array_equal(np.sort(np.asarray(stale_read.values)), expected)
    adaptive.absorb_reads()


def test_released_snapshots_are_collected():
    """Old snapshots must not accumulate once readers release them."""
    database, _ = _build("segmentation")
    segmentation = database.adaptive_handle("t", "v").adaptive
    snap = segmentation.pin_snapshot()
    seg_ref = weakref.ref(snap)
    for low, high in _bounds(60, seed=3):
        segmentation.select(low, high)
    assert segmentation.pin_snapshot().generation > snap.generation
    del snap
    gc.collect()
    assert seg_ref() is None, "superseded segmentation snapshot leaked"

    database, _ = _build("replication")
    replication = database.adaptive_handle("t", "v").adaptive
    snap = replication.pin_snapshot()
    repl_ref = weakref.ref(snap)
    for low, high in _bounds(60, seed=3):
        replication.select(low, high)
    assert replication.pin_snapshot().generation > snap.generation
    del snap
    gc.collect()
    assert repl_ref() is None, "superseded replication cover snapshot leaked"


def test_replication_snapshot_survives_budget_eviction_free():
    """A pinned snapshot stays readable after ``free()`` swaps live nodes virtual."""
    database, values = _build("replication")
    adaptive = database.adaptive_handle("t", "v").adaptive
    # Materialize replicas in one region, pin, then hammer another region so
    # budget enforcement evicts (frees) the replicas the snapshot holds.
    rng = np.random.default_rng(11)
    for _ in range(40):
        low = float(rng.uniform(0.0, DOMAIN * 0.25))
        adaptive.select(low, low + DOMAIN * 0.03)
    pinned = adaptive.pin_snapshot()
    for _ in range(80):
        low = float(rng.uniform(DOMAIN * 0.6, DOMAIN * 0.9))
        adaptive.select(low, low + DOMAIN * 0.03)
    dropped = sum(stats.segments_dropped for stats in adaptive.history)
    assert dropped > 0, "workload failed to trigger eviction; tighten the budget"
    low, high = DOMAIN * 0.05, DOMAIN * 0.15
    stale_read = adaptive.select_readonly(low, high, pinned)
    expected = np.sort(values[(values >= low) & (values < high)])
    np.testing.assert_array_equal(np.sort(np.asarray(stale_read.values)), expected)
    adaptive.absorb_reads()
    adaptive.check_invariants()

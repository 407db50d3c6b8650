"""Thread-safety of the plan cache under concurrent readers.

Snapshot reader threads resolve prepared templates through the shared
:class:`PlanCache` while the owner thread may ``clear()`` it (DDL, adaptive
registration).  These tests hammer exactly that interleaving: the store and
its counters must stay consistent, and a generation observed *before* a
lookup must let the caller detect a concurrent clear afterwards.
"""

from __future__ import annotations

import threading

from repro.engine.plan_cache import PlanCache


def _hammer(threads: int, fn) -> list[BaseException]:
    """Run ``fn(worker_index)`` on N threads, collecting any exceptions."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def body(index: int) -> None:
        barrier.wait()
        try:
            fn(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced via the list
            errors.append(exc)

    workers = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return errors


def test_concurrent_get_put_keeps_store_and_counters_consistent():
    cache = PlanCache(capacity=32)
    rounds = 400

    def churn(index: int) -> None:
        for i in range(rounds):
            key = f"worker-{index}-{i % 48}"
            if cache.get(key) is None:
                cache.put(key, object())
            cache.stats

    errors = _hammer(4, churn)
    assert not errors, errors
    stats = cache.stats
    # Every lookup was counted exactly once somewhere.
    assert stats.hits + stats.misses == 4 * rounds
    # The LRU never overshoots its bound, even under concurrent inserts.
    assert len(cache) <= cache.capacity
    # 4 x 48 distinct keys through 32 slots: every put beyond capacity evicted one.
    assert stats.evictions == stats.misses - stats.size


def test_clear_during_reads_never_serves_ghosts_and_bumps_generation():
    cache = PlanCache(capacity=64)
    stop = threading.Event()
    rounds = 300

    def reader(index: int) -> None:
        if index == 0:  # one writer thread clears repeatedly
            for _ in range(rounds):
                cache.clear()
            stop.set()
            return
        while not stop.is_set():
            key = ("prepared", f"q{index}")
            generation = cache.generation
            plan = cache.get(key)
            if plan is None:
                cache.put(key, ("plan", generation))
                continue
            _, seen = plan
            # The generation race the lock must make detectable: a plan
            # installed under generation G may be served after a clear, but
            # then the *current* generation has moved on — stale handles
            # re-prepare off exactly this comparison in Database.
            assert seen <= cache.generation

    errors = _hammer(4, reader)
    assert not errors, errors
    assert cache.generation >= rounds  # every clear() bumped it


def test_generation_is_monotone_under_concurrent_clears():
    cache = PlanCache()
    observed: list[list[int]] = [[] for _ in range(4)]

    def clearer(index: int) -> None:
        for _ in range(200):
            cache.clear()
            observed[index].append(cache.generation)

    errors = _hammer(4, clearer)
    assert not errors, errors
    for track in observed:
        assert track == sorted(track), "generation went backwards on one thread"
    # 4 threads x 200 clears: no bump may be lost.
    assert cache.generation == 800

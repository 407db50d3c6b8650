"""The one query frame: what every door of every strategy promises.

``AdaptiveColumnBase`` owns ``select`` / ``select_many``; each opens one frame
around the read path.  These tests pin the frame's contract once, for
every registered strategy, instead of once per copy.
"""

import inspect

import numpy as np
import pytest

from repro.core import strategy as strategy_module
from repro.core.models import AdaptivePageModel, SegmentationModel
from repro.core.strategy import available_strategies, create_strategy, strategy_class
from repro.engine.executor import Executor
from repro.optimizer.bpm import AdaptiveColumnHandle, BatPartitionManager
from repro.util.units import KB
from tests.conftest import TEST_DOMAIN, brute_force_count

STRATEGIES = available_strategies()

#: Five members: an empty range and a duplicate among them.
FIVE = [(10_000.0, 12_000.0), (7.0, 7.0), (60_000.0, 61_500.0), (10_000.0, 12_000.0),
        (11_000.0, 40_000.0)]


def apm() -> AdaptivePageModel:
    return AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)


def build(name: str, values: np.ndarray):
    """A warmed-up column (non-zero index, already reorganized)."""
    column = create_strategy(name, values, model=apm(), domain=TEST_DOMAIN)
    for low in (5_000.0, 30_000.0, 72_000.0):
        column.select(low, low + 3_000.0)
    return column


def doors(column) -> dict:
    """Door name -> ``(call, member ranges)``."""
    return {
        "select": (lambda: column.select(*FIVE[0]), FIVE[:1]),
        "select_many_1": (lambda: column.select_many(FIVE[:1]), FIVE[:1]),
        "select_many_5": (lambda: column.select_many(FIVE), FIVE),
    }


@pytest.mark.parametrize("door", ["select", "select_many_1", "select_many_5"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_every_door_writes_the_same_record(name, door, values):
    column = build(name, values)
    call, members = doors(column)[door]
    # Only an indexed strategy's select_many shares one record.
    shared = door != "select" and column.index is not None
    accountant = column.accountant
    executed = column._queries_executed
    recorded = len(column.history)
    reads, writes = accountant.total_reads_bytes, accountant.total_writes_bytes

    call()

    records = column.history.records[recorded:]
    assert len(records) == (1 if shared else len(members))
    assert [record.batch_size for record in records] == (
        [len(members)] if shared else [1] * len(members)
    )
    index = executed
    for record in records:  # the index continues from _queries_executed
        assert record.index == index
        index += record.batch_size
    assert column._queries_executed == index == executed + len(members)
    counts = [brute_force_count(values, low, high) for low, high in members]
    assert [record.result_count for record in records] == ([sum(counts)] if shared else counts)
    assert sum(record.reads_bytes for record in records) == accountant.total_reads_bytes - reads
    assert sum(record.writes_bytes for record in records) == accountant.total_writes_bytes - writes
    assert accountant.total_reads_bytes > reads
    assert accountant.current is None
    assert records[-1].segment_count == column.segment_count
    assert records[-1].storage_bytes == column.storage_bytes
    column.check_invariants()


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_raising_hook_detaches_the_accountant_and_leaves_no_record(name, values):
    column = build(name, values)

    def boom(*args):
        column.accountant.record_read(8.0)
        raise RuntimeError("hook failed")

    column._execute = boom
    column._execute_batch = boom
    executed, recorded = column._queries_executed, len(column.history)
    for call in (
        lambda: column.select(*FIVE[0]),
        lambda: column.select_many(FIVE),
    ):
        with pytest.raises(RuntimeError, match="hook failed"):
            call()
        assert column.accountant.current is None
    assert (column._queries_executed, len(column.history)) == (executed, recorded)


def test_an_empty_batch_opens_no_frame(values):
    for name in STRATEGIES:
        column = build(name, values)
        recorded = len(column.history)
        assert column.select_many([]) == []
        assert len(column.history) == recorded


def test_removed_names_stay_removed(values):
    for name in STRATEGIES:
        cls = strategy_class(name)
        assert "keep_history" not in inspect.signature(cls.__init__).parameters
        assert not hasattr(cls, "supports_batch")
        for door in ("select", "select_many"):  # the doors are the base's
            assert door not in vars(cls), (name, door)
        with pytest.raises(TypeError):
            create_strategy(name, values, model=apm(), keep_history=False)
    assert not hasattr(SegmentationModel, "observe")  # nothing reads result sizes back
    assert not hasattr(strategy_module, "_read_observations_init_lock")
    assert not hasattr(Executor, "_adaptive_counters")
    assert not hasattr(Executor, "_adaptive_delta")
    assert not hasattr(AdaptiveColumnHandle, "last_query_stats")
    assert not hasattr(BatPartitionManager, "iter_handles")

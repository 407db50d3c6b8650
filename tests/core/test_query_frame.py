"""The one query frame: what every door of every strategy promises.

``AdaptiveColumnBase`` owns ``select`` / ``select_many`` / ``absorb_reads``;
each opens one frame around a per-strategy hook.  These tests pin the frame's
contract once, for every registered strategy, instead of once per copy.
"""

import inspect

import numpy as np
import pytest

from repro.core import strategy as strategy_module
from repro.core.models import AdaptivePageModel
from repro.core.strategy import available_strategies, create_strategy, strategy_class
from repro.engine.executor import Executor
from repro.optimizer.bpm import AdaptiveColumnHandle, BatPartitionManager
from repro.util.units import KB
from tests.conftest import TEST_DOMAIN, brute_force_count

STRATEGIES = available_strategies()

#: Five members: an empty range and a duplicate among them.
FIVE = [(10_000.0, 12_000.0), (7.0, 7.0), (60_000.0, 61_500.0), (10_000.0, 12_000.0),
        (11_000.0, 40_000.0)]


class RecordingModel(AdaptivePageModel):
    """An APM that remembers every result size the frame feeds it."""

    def __init__(self) -> None:
        super().__init__(m_min=3 * KB, m_max=12 * KB)
        self.observed: list[float] = []

    def observe(self, selected_bytes: float) -> None:
        self.observed.append(selected_bytes)
        super().observe(selected_bytes)


def build(name: str, values: np.ndarray):
    """A warmed-up column (non-zero index, already reorganized) and its model."""
    model = RecordingModel()
    column = create_strategy(name, values, model=model, domain=TEST_DOMAIN)
    for low in (5_000.0, 30_000.0, 72_000.0):
        column.select(low, low + 3_000.0)
    model.observed.clear()
    return column, model


def doors(column) -> dict:
    """Door name -> ``(call, member ranges)``."""

    def absorb(ranges):
        for low, high in ranges:
            column.select_readonly(low, high)
        assert column.absorb_reads() == len(ranges)

    return {
        "select": (lambda: column.select(*FIVE[0]), FIVE[:1]),
        "select_many_1": (lambda: column.select_many(FIVE[:1]), FIVE[:1]),
        "select_many_5": (lambda: column.select_many(FIVE), FIVE),
        "absorb_reads": (lambda: absorb(FIVE), FIVE),
    }


@pytest.mark.parametrize("door", ["select", "select_many_1", "select_many_5", "absorb_reads"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_every_door_writes_the_same_record(name, door, values):
    column, model = build(name, values)
    call, members = doors(column)[door]
    # Only a batch-kernel select_many and absorb_reads share one record.
    shared = door == "absorb_reads" or (
        door != "select" and type(column)._execute_batch is not None
    )
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
    if door == "absorb_reads":  # snapshot reads are not accounted
        assert accountant.total_reads_bytes == reads
    else:
        assert accountant.total_reads_bytes > reads
    assert accountant.current is None
    assert column.stats() is records[-1]
    assert records[-1].segment_count == column.segment_count
    assert records[-1].storage_bytes == column.storage_bytes
    # The model is fed once per record with the mean result size; the baseline has none.
    expected = [record.result_count * column.value_width / record.batch_size for record in records]
    assert model.observed == (expected if strategy_class(name).requires_model else [])
    column.check_invariants()


@pytest.mark.parametrize("name", STRATEGIES)
def test_a_raising_hook_detaches_the_accountant_and_leaves_no_record(name, values):
    column, model = build(name, values)

    def boom(*args):
        column.accountant.record_read(8.0)
        raise RuntimeError("hook failed")

    column._execute = column._absorb = boom
    if type(column)._execute_batch is not None:
        column._execute_batch = boom
    column.select_readonly(*FIVE[0])
    executed, recorded = column._queries_executed, len(column.history)
    for call in (
        lambda: column.select(*FIVE[0]),
        lambda: column.select_many(FIVE),
        column.absorb_reads,
    ):
        with pytest.raises(RuntimeError, match="hook failed"):
            call()
        assert column.accountant.current is None
    assert (column._queries_executed, len(column.history)) == (executed, recorded)
    assert model.observed == []


def test_an_empty_batch_opens_no_frame(values):
    for name in STRATEGIES:
        column, model = build(name, values)
        recorded = len(column.history)
        assert column.select_many([]) == []
        assert column.absorb_reads() == 0
        assert len(column.history) == recorded and model.observed == []


def test_removed_names_stay_removed(values):
    for name in STRATEGIES:
        cls = strategy_class(name)
        assert "keep_history" not in inspect.signature(cls.__init__).parameters
        assert not hasattr(cls, "supports_batch")
        for door in ("select", "select_many", "absorb_reads"):  # the doors are the base's
            assert door not in vars(cls), (name, door)
        with pytest.raises(TypeError):
            create_strategy(name, values, model=RecordingModel(), keep_history=False)
    assert not hasattr(strategy_module, "_read_observations_init_lock")
    assert not hasattr(Executor, "_adaptive_counters")
    assert not hasattr(Executor, "_adaptive_delta")
    assert not hasattr(AdaptiveColumnHandle, "last_query_stats")
    assert not hasattr(BatPartitionManager, "iter_handles")

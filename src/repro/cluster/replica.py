"""One engine replica: a :class:`Database` pinned to its own worker thread.

The paper's adaptation is deliberately single-threaded — a selection may
reorganize the column it scans — and PR 6 preserved that invariant by
funnelling every wave through one engine worker.  Scale-out keeps the same
contract per replica: each :class:`EngineReplica` owns a fresh ``Database``
clone and a one-thread :class:`ReplicaWorker`, so all execution *and*
adaptation for that replica happen on its own worker.  Replicas never share
mutable state; divergence between their adaptive layouts is the whole point.

Fault tolerance adds two things here.  First, every replica carries a
health state (:class:`ReplicaHealth`) driven by the router's failure
detector::

    healthy ──failure──> suspect ──more failures / deadline timeout──> quarantined
       ^                    │                                              │
       └────success─────────┘                  rebuilding <──rebuild───────┘
       └──────────────rebuild completes────────────┘

Second, the worker is a plain daemon thread with a **hard-timeout join**
(:meth:`ReplicaWorker.close`): a wedged replica — stuck in an injected hang
or a pathological kernel — can be abandoned without hanging interpreter
shutdown, and a quarantined replica is rebuilt by swapping in a fresh clone
*and* a fresh worker (:meth:`EngineReplica.replace_database`) rather than
waiting on the wedged one.
"""

from __future__ import annotations

import enum
import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable

import numpy as np

from repro.engine.database import Database

__all__ = ["EngineReplica", "ReplicaHealth", "ReplicaWorker", "clone_database"]


class ReplicaHealth(enum.Enum):
    """The health state machine of one replica (transitions owned by the Router)."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    REBUILDING = "rebuilding"

    @property
    def routable(self) -> bool:
        """May the router still send this replica traffic?"""
        return self in (ReplicaHealth.HEALTHY, ReplicaHealth.SUSPECT)


def clone_database(source: Database) -> Database:
    """A fresh :class:`Database` with the same tables, data, adaptive setup and reader fan-out.

    Data arrays are **copied** (replicas must not share base arrays: each
    replica's adaptive strategy reorganizes its own copy) and adaptive
    strategies are re-enabled from the recorded enable-time configuration,
    so the clone starts from the paper's initial one-segment state and is
    free to diverge from the source as it serves its own workload slice.
    Pending deltas are carried, not flushed: level 0 is bulk-loaded and the
    source's insert tail, update pairs and deleted oids are replayed onto
    the clone, so a fleet that has taken writes can still rebuild a replica.
    """
    configs = source.adaptive_configs()
    for handle in source.bpm.handles():
        if (handle.table, handle.column) not in configs:
            raise ValueError(
                f"adaptive column {handle.table}.{handle.column} was enabled with "
                "a model instance; only string-named models can be cloned"
            )
    clone = Database(plan_cache_size=source.plan_cache.capacity)
    clone.read_workers = source.read_workers
    for table in source.table_names():
        schema = source.catalog.schema(table)
        clone.create_table(
            table, {name: schema.dtype_of(name) for name in schema.column_names}
        )
        data = {
            name: np.array(source.catalog.column(table, name).bind(0).tail, copy=True)
            for name in schema.column_names
        }
        clone.bulk_load(table, data)
    for (table, column), config in configs.items():
        clone.enable_adaptive(table, column, **config)
    for table in source.table_names():
        store = source.catalog.table(table)
        if not store.has_deltas:
            continue
        target = clone.catalog.table(table)
        target.insert(
            {name: column.bind(1).tail.copy() for name, column in store.columns.items()}
        )
        for name, column in store.columns.items():
            updates = column.bind(2)
            target.update(name, updates.head.copy(), updates.tail.copy())
        target.delete(store.deletion_bat.tail)
    return clone


class ReplicaWorker:
    """A single daemon worker thread with ``Executor.submit`` semantics.

    The deliberate differences from ``ThreadPoolExecutor(max_workers=1)``:

    * the thread is a **daemon**, so a wedged task can never block
      interpreter shutdown (CPython joins non-daemon executor threads at
      exit — exactly the hang this class exists to avoid);
    * :meth:`close` joins with a **hard timeout** and reports whether the
      worker exited cleanly; a worker that missed the deadline is flagged
      :attr:`wedged` and simply abandoned.

    ``submit`` returns a :class:`concurrent.futures.Future`, which is all
    ``asyncio``'s ``run_in_executor`` needs — the admission layer treats a
    worker exactly like an executor.
    """

    _SENTINEL = object()

    def __init__(self, index: int) -> None:
        self.index = int(index)
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self.wedged = False
        self._thread = threading.Thread(
            target=self._loop,
            name=f"repro-replica-{index}",
            daemon=True,
        )
        self._thread.start()

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)`` on the worker thread."""
        if self._closed:
            raise RuntimeError(f"replica worker {self.index} is closed")
        future: Future = Future()
        self._queue.put((future, fn, args))
        return future

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                return
            future, fn, args = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - delivered via the future
                future.set_exception(exc)

    def close(self, timeout: float = 5.0) -> bool:
        """Stop the worker; join with a hard timeout.  Idempotent.

        Returns ``True`` when the thread exited within ``timeout`` seconds.
        A ``False`` return means the worker is wedged mid-task: it is
        abandoned (daemon threads die with the interpreter) and every future
        still queued behind the wedge is failed by the interpreter exit, not
        by us — callers must not resubmit to a closed worker.
        """
        if self._closed:
            return not self.wedged
        self._closed = True
        self._queue.put(self._SENTINEL)
        self._thread.join(timeout)
        self.wedged = self._thread.is_alive()
        return not self.wedged

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()


class EngineReplica:
    """A database clone plus the single worker thread that owns it.

    All calls that touch the replica's engine go through :meth:`submit`
    (async, returns a future) or :meth:`run` (blocks) so they serialize on
    the replica's own thread.  ``queries_served`` / ``busy_seconds`` are only
    ever written from that thread; readers treat them as advisory.

    Health fields live here; *transitions* are owned by the
    :class:`~repro.cluster.Router`'s failure detector, which is the only
    component with the fleet-wide view failover needs.
    """

    def __init__(self, index: int, database: Database) -> None:
        self.index = int(index)
        self.database = database
        self.worker = ReplicaWorker(index)
        self.queries_served = 0
        self.waves_served = 0
        self.busy_seconds = 0.0
        self.health = ReplicaHealth.HEALTHY
        self.consecutive_failures = 0
        self.failures = 0
        self.rebuilds = 0
        self.last_error: str | None = None
        self._closed = False

    @property
    def executor(self) -> ReplicaWorker:
        """The worker, quacking like an executor (``run_in_executor`` target)."""
        return self.worker

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)`` on the replica's worker thread."""
        return self.worker.submit(fn, *args)

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` on the replica's worker thread and wait."""
        return self.submit(fn, *args).result()

    def replace_database(self, database: Database, *, close_timeout: float = 0.2) -> None:
        """Swap in a rebuilt engine on a **fresh** worker (the rebuild path).

        The old worker may be wedged — that is usually why we are here — so
        it gets a token-timeout close and is otherwise abandoned; the new
        worker starts with an empty queue, and the replica's failure
        bookkeeping resets.  The caller (the router) owns the health
        transition back to ``HEALTHY``.
        """
        self.worker.close(timeout=close_timeout)
        self.database = database
        self.worker = ReplicaWorker(self.index)
        self.consecutive_failures = 0
        self.last_error = None
        self.rebuilds += 1

    def close(self, timeout: float = 5.0) -> bool:
        """Shut down the worker thread (idempotent, hard-timeout join).

        Once the worker has joined cleanly nothing can execute on this
        replica again, so its engine's ``query_history`` — every
        :class:`QueryResult` it delivered, result columns included — is
        released here rather than whenever the cyclic collector next reaches
        the engine's reference cycles.  Read the history before closing.  A
        wedged worker may still be appending: its engine is left alone.
        """
        if not self._closed:
            self._closed = True
            if self.worker.close(timeout=timeout):
                self.database.query_history.clear()
        return not self.worker.wedged

    @property
    def wedged(self) -> bool:
        """Did a close miss its join deadline (worker stuck mid-task)?"""
        return self.worker.wedged

    def stats(self) -> dict[str, Any]:
        """Advisory service counters plus health and the divergence summary."""
        qps = self.queries_served / self.busy_seconds if self.busy_seconds else 0.0
        columns: dict[str, dict[str, Any]] = {}
        for handle in self.database.bpm.handles():
            description = handle.adaptive.describe()
            columns[f"{handle.table}.{handle.column}"] = {
                "strategy": handle.strategy,
                "segment_count": description.get("segment_count"),
                "storage_bytes": description.get("storage_bytes"),
                "queries_executed": description.get("queries_executed"),
            }
        return {
            "index": self.index,
            "queries_served": self.queries_served,
            "waves_served": self.waves_served,
            "busy_seconds": self.busy_seconds,
            "qps": qps,
            "health": self.health.value,
            "read_workers": self.database.read_workers,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "rebuilds": self.rebuilds,
            "last_error": self.last_error,
            "columns": columns,
        }

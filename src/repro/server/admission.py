"""Batch admission control: N concurrent clients, one vectorized wave.

The controller is the heart of the server front-end.  Incoming bound selects
are not executed as they arrive: each is queued for at most ``batch_window_us``
microseconds so that requests from *other* connections can pile on, then the
whole wave is handed to :meth:`~repro.engine.database.Database.execute_wave`
on its replica's single worker thread — same-column selects collapse into one
``select_many`` kernel pass (piggy-backed adaptation runs once per batch,
preserving the engine's single-threaded adaptation invariant), everything
else falls back to per-query prepared execution inside the same wave.

The controller always fronts a :class:`~repro.cluster.Router` — a single
engine is a fleet of one — and keeps **one wave queue per replica**: each
submission is routed to a replica up front (cluster best-fit), queued on that
replica's shard, and each flush window drains *one wave per replica*,
executed concurrently — every replica on its own worker thread, so the
per-replica adaptation invariant holds while the fleet proceeds in parallel.

Knobs (all first-class constructor parameters, surfaced over the wire in the
HELLO response and in :meth:`AdmissionController.stats`):

``batch_window_us``
    How long the first request of a wave may wait for company.  Larger
    windows grow waves (throughput) at the cost of idle-system latency;
    ``0`` flushes as soon as the event loop gets around to it.  Under
    backlog (``max_wave`` requests already queued) the window is skipped —
    waves run back-to-back.
``max_wave``
    Batch-size cap: the most members one wave may carry (per replica).
``max_inflight``
    Bounded-queue backpressure: when this many requests are queued, further
    submissions either raise :class:`~repro.api.exceptions.OperationalError`
    (``overflow="error"``) or await until the queue drains
    (``overflow="wait"``).
``max_inflight_per_connection``
    Per-connection fairness cap: one firehose client saturating its own cap
    awaits (its reads stop, TCP pushes back) while other connections keep
    submitting.  Waves are drained **round-robin across connections** — each
    round takes at most one request per connection — so an interactive
    client's query rides the very next wave no matter how deep the
    firehose's backlog is.

Fault tolerance (the wave-level half; the replica health machine lives in
:class:`~repro.cluster.Router`):

* member errors are **isolated** — waves execute with ``isolate=True``, so a
  poison member resolves its own future with its own exception while its
  wave-mates complete normally;
* a wave that dies with the *infrastructure*
  (:class:`~repro.api.exceptions.TransientError`: replica crash, injected
  fault, deadline timeout) is **retried with exponential backoff** on a
  failover replica — on a fleet of one, the same replica — up to
  ``max_retries`` times; safe because waves carry bound range selects,
  idempotent above adaptation;
* ``wave_deadline_s`` bounds each wave attempt; a blown deadline quarantines
  the replica (its worker is presumed wedged and is abandoned — the engine
  call keeps running on the orphaned thread but its result is discarded),
  unless it is the last routable one, which the router never quarantines;
* quarantined replicas are **rebuilt in the background**
  (``auto_rebuild=True``) via ``Router.rebuild_replica`` on a default-pool
  thread, then re-admitted to routing;
* :meth:`AdmissionController.drain` supports graceful shutdown: new
  submissions are refused while queued requests and in-flight waves run to
  completion.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.api.exceptions import (
    OperationalError,
    TransientError,
    translate_exception,
)


@dataclass(slots=True)
class _Request:
    """One admitted statement waiting for its wave."""

    connection_id: Hashable
    prepared: Any
    values: tuple[float, ...]
    future: asyncio.Future


@dataclass(slots=True)
class _Shard:
    """Per-replica wave queue: per-connection FIFOs plus the fairness ring."""

    queues: dict[Hashable, deque[_Request]] = field(default_factory=dict)
    ring: deque[Hashable] = field(default_factory=deque)

    def __len__(self) -> int:
        return sum(len(queue) for queue in self.queues.values())


@dataclass
class AdmissionStats:
    """Counters of one controller (monotonic; ``pending`` is instantaneous)."""

    admitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_overflow: int = 0
    waves: int = 0
    last_wave: int = 0
    max_wave_seen: int = 0
    wave_members: int = 0
    retries: int = 0
    wave_timeouts: int = 0
    member_failures: int = 0
    rebuilds_started: int = 0
    connections_seen: set = field(default_factory=set, repr=False)
    replica_waves: list[int] = field(default_factory=list)
    replica_members: list[int] = field(default_factory=list)

    def as_dict(
        self, pending: int, replica_pending: list[int] | None = None
    ) -> dict[str, Any]:
        payload = {
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_overflow": self.rejected_overflow,
            "waves": self.waves,
            "last_wave": self.last_wave,
            "max_wave_seen": self.max_wave_seen,
            "mean_wave": self.wave_members / self.waves if self.waves else 0.0,
            "retries": self.retries,
            "wave_timeouts": self.wave_timeouts,
            "member_failures": self.member_failures,
            "rebuilds_started": self.rebuilds_started,
            "pending": pending,
        }
        if len(self.replica_waves) > 1:
            pending_list = replica_pending or [0] * len(self.replica_waves)
            payload["per_replica"] = [
                {
                    "waves": self.replica_waves[index],
                    "members": self.replica_members[index],
                    "mean_wave": (
                        self.replica_members[index] / self.replica_waves[index]
                        if self.replica_waves[index]
                        else 0.0
                    ),
                    "pending": pending_list[index],
                }
                for index in range(len(self.replica_waves))
            ]
        return payload


class AdmissionController:
    """Window-batched, fairness-aware admission onto a fleet's replica workers.

    The controller owns no sockets and no threads of its own: the server
    hands it a :class:`~repro.cluster.Router` (one shard per replica, each
    wave executed on its replica's own worker; routing happens at submit
    time via ``Router.route``) and submits ``(connection_id, prepared_plan,
    bound_values)`` triples from its connection handlers.  ``submit``
    returns an :class:`asyncio.Future` that resolves to the member's
    :class:`~repro.engine.result.QueryResult`.
    """

    def __init__(
        self,
        router: Any,
        *,
        batch_window_us: float = 250.0,
        max_inflight: int = 1024,
        max_wave: int = 256,
        max_inflight_per_connection: int | None = None,
        overflow: str = "error",
        wave_deadline_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        auto_rebuild: bool = True,
    ) -> None:
        if batch_window_us < 0:
            raise ValueError("batch_window_us must be >= 0")
        if max_inflight < 1 or max_wave < 1:
            raise ValueError("max_inflight and max_wave must be >= 1")
        if overflow not in ("error", "wait"):
            raise ValueError(f"overflow must be 'error' or 'wait', got {overflow!r}")
        if wave_deadline_s is not None and wave_deadline_s <= 0:
            raise ValueError("wave_deadline_s must be > 0 (or None)")
        if max_retries < 0 or retry_backoff_s < 0:
            raise ValueError("max_retries and retry_backoff_s must be >= 0")
        if max_inflight_per_connection is None:
            max_inflight_per_connection = max(1, max_inflight // 4)
        if max_inflight_per_connection < 1:
            raise ValueError("max_inflight_per_connection must be >= 1")
        self._router = router
        n_replicas = router.n_replicas
        self.batch_window_us = float(batch_window_us)
        self.max_inflight = int(max_inflight)
        self.max_wave = int(max_wave)
        self.max_inflight_per_connection = int(max_inflight_per_connection)
        self.overflow = overflow
        self.wave_deadline_s = wave_deadline_s
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.auto_rebuild = bool(auto_rebuild)

        self._shards: list[_Shard] = [_Shard() for _ in range(n_replicas)]
        self._connection_pending: dict[Hashable, int] = {}
        self._pending = 0
        self._inflight_waves = 0
        self._running = False
        self._draining = False
        self._task: asyncio.Task | None = None
        self._rebuild_tasks: set[asyncio.Task] = set()
        self._wake = asyncio.Event()
        self._drained = asyncio.Condition()
        self.stats = AdmissionStats(
            replica_waves=[0] * n_replicas, replica_members=[0] * n_replicas
        )

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Start the flush loop on the running event loop."""
        if self._running:
            return
        self._running = True
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-admission-flush"
        )

    async def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown, phase 1: refuse new work, finish what's queued.

        Flips the controller into draining mode (``submit`` raises
        :class:`OperationalError`), then waits for every queued request *and*
        every in-flight wave to resolve — completed waves still deliver their
        results to waiting clients, which is the point of draining instead of
        stopping.  Returns ``True`` when the backlog hit zero, ``False`` on
        timeout (a wedged wave past its deadline; :meth:`stop` will fail the
        leftovers).  Idempotent; the controller stays usable for ``stop``.
        """
        self._draining = True
        self._wake.set()

        async def settled() -> None:
            while self._pending > 0 or self._inflight_waves > 0:
                async with self._drained:
                    if self._pending == 0 and self._inflight_waves == 0:
                        return
                    await self._drained.wait()

        try:
            await asyncio.wait_for(settled(), timeout)
        except asyncio.TimeoutError:
            return False
        if self._rebuild_tasks:  # let background rebuilds finish re-admission
            await asyncio.gather(*self._rebuild_tasks, return_exceptions=True)
        return True

    async def stop(self) -> None:
        """Stop the flush loop and fail everything still queued."""
        if not self._running:
            return
        self._running = False
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        for task in list(self._rebuild_tasks):
            task.cancel()
        if self._rebuild_tasks:
            await asyncio.gather(*self._rebuild_tasks, return_exceptions=True)
            self._rebuild_tasks.clear()
        for shard in self._shards:
            for queue in shard.queues.values():
                while queue:
                    request = queue.popleft()
                    self._pending -= 1
                    if not request.future.done():
                        request.future.set_exception(
                            OperationalError("server is shutting down")
                        )
            shard.queues.clear()
            shard.ring.clear()
        self._connection_pending.clear()
        async with self._drained:
            self._drained.notify_all()

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet drained into a wave)."""
        return self._pending

    def replica_pending(self) -> list[int]:
        """Per-shard queue depth (instantaneous)."""
        return [len(shard) for shard in self._shards]

    def connection_pending(self, connection_id: Hashable) -> int:
        """Requests of one connection currently queued (across shards)."""
        return self._connection_pending.get(connection_id, 0)

    def forget_connection(self, connection_id: Hashable) -> None:
        """Drop a disconnected client's queues (its futures are cancelled)."""
        for shard in self._shards:
            queue = shard.queues.pop(connection_id, None)
            if queue:
                self._pending -= len(queue)
                for request in queue:
                    if not request.future.done():
                        request.future.cancel()
            try:
                shard.ring.remove(connection_id)
            except ValueError:
                pass
        self._connection_pending.pop(connection_id, None)

    def knobs(self) -> dict[str, Any]:
        """The admission knobs, as advertised in the HELLO response."""
        return {
            "batch_window_us": self.batch_window_us,
            "max_inflight": self.max_inflight,
            "max_wave": self.max_wave,
            "max_inflight_per_connection": self.max_inflight_per_connection,
            "overflow": self.overflow,
            "wave_deadline_s": self.wave_deadline_s,
            "max_retries": self.max_retries,
            "retry_backoff_s": self.retry_backoff_s,
            "auto_rebuild": self.auto_rebuild,
            "replicas": len(self._shards),
        }

    # -- submission -----------------------------------------------------------

    async def submit(
        self, connection_id: Hashable, prepared: Any, values: tuple[float, ...]
    ) -> asyncio.Future:
        """Queue one bound statement; the future resolves with its result.

        Applies the per-connection fairness cap (always awaited: the
        submitting handler stops reading, which is exactly the backpressure a
        firehose should feel) and the global ``max_inflight`` bound (policy
        per the ``overflow`` knob).  The statement is routed to its replica
        here, before queueing.
        """
        self._check_running()
        while self.connection_pending(connection_id) >= self.max_inflight_per_connection:
            await self._wait_drained()
        if self._pending >= self.max_inflight:
            if self.overflow == "error":
                self.stats.rejected_overflow += 1
                raise OperationalError(
                    f"admission queue full: {self._pending} requests in flight "
                    f"(max_inflight={self.max_inflight})"
                )
            while self._pending >= self.max_inflight:
                await self._wait_drained()
        values = tuple(values)
        shard_index = self._router.route(prepared, values)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        request = _Request(connection_id, prepared, values, future)
        shard = self._shards[shard_index]
        queue = shard.queues.get(connection_id)
        if queue is None:
            queue = deque()
            shard.queues[connection_id] = queue
        if not queue:
            shard.ring.append(connection_id)
        queue.append(request)
        self._pending += 1
        self._connection_pending[connection_id] = (
            self._connection_pending.get(connection_id, 0) + 1
        )
        self.stats.admitted += 1
        self.stats.connections_seen.add(connection_id)
        self._wake.set()
        return future

    def _check_running(self) -> None:
        if self._draining:
            raise OperationalError("server is draining; not accepting new requests")
        if not self._running:
            raise OperationalError("admission controller is not running")

    async def _wait_drained(self) -> None:
        async with self._drained:
            await self._drained.wait()
        self._check_running()

    # -- the flush loop -------------------------------------------------------

    async def _run(self) -> None:
        while self._running:
            await self._wake.wait()
            if not self._running:
                break
            if self._pending < self.max_wave and self.batch_window_us > 0:
                # The admission window: give the rest of the fleet a moment
                # to pile onto this wave.  Skipped under backlog — a full
                # wave is already waiting, so waves run back-to-back.
                await asyncio.sleep(self.batch_window_us / 1e6)
                if not self._running:
                    break
            waves = [
                (index, wave)
                for index in range(len(self._shards))
                for wave in (self._drain_wave(index),)
                if wave
            ]
            if self._pending == 0:
                self._wake.clear()
            if waves:
                # One wave per replica per window, executed concurrently —
                # each on its replica's own single worker thread.
                await asyncio.gather(
                    *(self._execute_wave(index, wave) for index, wave in waves)
                )
                async with self._drained:
                    self._drained.notify_all()

    def _drain_wave(self, shard_index: int) -> list[_Request]:
        """Up to ``max_wave`` requests of one shard, round-robin across connections."""
        shard = self._shards[shard_index]
        wave: list[_Request] = []
        while shard.ring and len(wave) < self.max_wave:
            connection_id = shard.ring.popleft()
            queue = shard.queues.get(connection_id)
            if not queue:
                continue
            request = queue.popleft()
            self._pending -= 1
            remaining = self._connection_pending.get(connection_id, 1) - 1
            if remaining > 0:
                self._connection_pending[connection_id] = remaining
            else:
                self._connection_pending.pop(connection_id, None)
            if queue:
                shard.ring.append(connection_id)
            if request.future.done():  # cancelled by a vanished client
                continue
            wave.append(request)
        return wave

    async def _execute_wave(self, shard_index: int, wave: list[_Request]) -> None:
        """One engine pass for the whole wave, retried across replicas on failure.

        Member errors come back *in-slot* from ``execute_wave(isolate=True)``
        and resolve only their own futures.  A wave-level failure is split by
        taxonomy: :class:`TransientError` (replica crash, injected fault,
        blown deadline) is retried with exponential backoff on a routable
        failover replica — waves carry idempotent bound selects, so replays
        are safe — while anything terminal fails the wave's members at once.
        """
        self.stats.waves += 1
        self.stats.last_wave = len(wave)
        self.stats.wave_members += len(wave)
        self.stats.max_wave_seen = max(self.stats.max_wave_seen, len(wave))
        self.stats.replica_waves[shard_index] += 1
        self.stats.replica_members[shard_index] += len(wave)
        payload = [(request.prepared, request.values) for request in wave]
        self._inflight_waves += 1
        try:
            target = shard_index
            attempt = 0
            while True:
                try:
                    results = await self._run_wave_once(target, payload)
                except asyncio.TimeoutError:
                    # The worker blew the wave deadline: presume it wedged,
                    # abandon the attempt (the engine call keeps running on
                    # the orphaned thread; its late result is discarded) and
                    # quarantine via the router's failure detector.
                    self.stats.wave_timeouts += 1
                    self._router.record_wave_timeout(target)
                    self._maybe_rebuild(target)
                    exc: BaseException = TransientError(
                        f"wave deadline of {self.wave_deadline_s}s expired "
                        f"on replica {target}"
                    )
                    retry = self._retry_target(target, attempt)
                    if retry is None:
                        self._fail_wave(wave, exc)
                        return
                except TransientError as exc:
                    # execute_wave_on already recorded the failure.
                    self._maybe_rebuild(target)
                    retry = self._retry_target(target, attempt)
                    if retry is None:
                        self._fail_wave(wave, exc)
                        return
                except Exception as exc:  # noqa: BLE001 - terminal wave failure
                    self._fail_wave(wave, translate_exception(exc))
                    return
                else:
                    for request, result in zip(wave, results):
                        if request.future.done():
                            continue
                        if isinstance(result, BaseException):
                            request.future.set_exception(translate_exception(result))
                            self.stats.failed += 1
                            self.stats.member_failures += 1
                        else:
                            request.future.set_result(result)
                            self.stats.completed += 1
                    return
                attempt += 1
                self.stats.retries += 1
                if self.retry_backoff_s > 0:
                    await asyncio.sleep(self.retry_backoff_s * 2 ** (attempt - 1))
                target = retry
        finally:
            self._inflight_waves -= 1
            async with self._drained:
                self._drained.notify_all()

    async def _run_wave_once(
        self, target: int, payload: list[tuple[Any, tuple[float, ...]]]
    ) -> list[Any]:
        """One wave attempt on one replica's worker, under the wave deadline."""
        call = asyncio.get_running_loop().run_in_executor(
            self._router.executor(target), self._router.execute_wave_on, target, payload
        )
        if self.wave_deadline_s is None:
            return await call
        return await asyncio.wait_for(call, self.wave_deadline_s)

    def _retry_target(self, failed: int, attempt: int) -> int | None:
        """The replica for the next attempt, or ``None`` when out of retries."""
        if attempt >= self.max_retries:
            return None
        routable = self._router.healthy_indices()
        if not routable:
            return None
        survivors = [index for index in routable if index != failed] or routable
        return survivors[attempt % len(survivors)]

    def _fail_wave(self, wave: list[_Request], exc: BaseException) -> None:
        for request in wave:
            if not request.future.done():
                request.future.set_exception(exc)
        self.stats.failed += len(wave)

    def _maybe_rebuild(self, index: int) -> None:
        """Kick off a background rebuild of a quarantined replica, once."""
        if not self.auto_rebuild or self._router.replicas[index].health.value != "quarantined":
            return
        loop = asyncio.get_running_loop()
        task = loop.create_task(
            self._rebuild_off_loop(index),
            name=f"repro-rebuild-replica-{index}",
        )
        self.stats.rebuilds_started += 1
        self._rebuild_tasks.add(task)
        task.add_done_callback(self._rebuild_tasks.discard)

    async def _rebuild_off_loop(self, index: int) -> dict[str, Any]:
        """Run ``Router.rebuild_replica`` on a default-pool thread.

        The clone blocks on the donor's worker queue, so it must never run
        on the event loop itself.
        """
        return await asyncio.get_running_loop().run_in_executor(
            None, self._router.rebuild_replica, index
        )

"""The async client: PEP 249 shapes over the repro wire protocol.

``await repro.aio.connect(host, port)`` opens an :class:`AsyncConnection`
mirroring the in-process facade — cursors, ``prepare``, an ``admin`` handle —
except that execution awaits a server round-trip and every select rides the
server's batch admission: concurrent clients issuing range selects — bound or
literal — are answered as one vectorized wave (see
:mod:`repro.server.admission`).

The connection pipelines: every request carries an id and responses are
correlated by a background receive task, so many coroutines can share one
connection and keep queries in flight concurrently::

    connection = await repro.aio.connect(*server.address)
    rows = await asyncio.gather(
        *(connection.execute("select v from t where v >= ? and v < ?", (lo, hi))
          for lo, hi in windows)
    )

Fetching stays synchronous (the rows are already client-side once ``execute``
returns), matching the blocking cursor's fetch surface exactly.

Columns cross the wire as raw numpy buffers in both directions (protocol 3,
see :mod:`repro.server.protocol`): a :class:`RemoteResult` holds the arrays
the reply frame carried — writable, with the server's dtypes — and
``admin.bulk_load`` / ``insert`` / ``delete`` send their arrays the same way.
Only 1-D bool, integer and float arrays can cross; anything else — or a
request over the frame limit — raises
:class:`~repro.api.exceptions.ProgrammingError` before a byte is sent.

Resilience (all opt-in, off by default so failures stay loud):

``request_timeout``
    Per-request deadline, ``request_timeout`` seconds after the request is
    sent.  A timed-out request raises
    :class:`~repro.api.exceptions.TransientError`; its late response, if one
    ever arrives, is discarded by the correlation map — never delivered to
    the wrong caller.  The connection keeps one timer, not one per request:
    requests are pending in send order, which is deadline order, so the
    timer is armed for the oldest one; when it fires it fails every request
    past its deadline and re-arms for the next.
``reconnect=True``
    A dropped socket no longer bricks the connection: the next request
    redials — :data:`RECONNECT_ATTEMPTS` dials, the backoff doubling from
    ``reconnect_backoff_s`` — and re-runs the HELLO handshake.  Server-side
    prepared-statement ids die with the old connection, so
    :class:`AsyncPreparedStatement` handles raise ``ProgrammingError`` after
    a reconnect — re-``prepare`` them.
``retry_reads=True``
    Text-bearing ``execute``/``executemany`` frames that failed with a
    :class:`~repro.api.exceptions.TransientError` (drop, timeout, failover
    in progress) are retried after reconnecting, up to
    :data:`RETRY_ATTEMPTS` times.  Bound range selects are
    idempotent above adaptation, which is what makes this safe; statement-id
    frames are **never** retried (the id does not survive the reconnect).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Sequence

import numpy as np

from repro.api.cursor import _FetchCursor
from repro.api.exceptions import (
    InterfaceError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    TransientError,
    error_from_name,
)
from repro.server.protocol import PROTOCOL_VERSION, ProtocolError, read_frame, write_frame

#: Dials a dropped connection makes before its request fails (``reconnect=True``).
RECONNECT_ATTEMPTS = 3
#: Re-sends of one text read after a transient failure (``retry_reads=True``).
RETRY_ATTEMPTS = 2

__all__ = [
    "AsyncAdmin",
    "AsyncConnection",
    "AsyncCursor",
    "AsyncPreparedStatement",
    "RemoteResult",
    "connect",
]


class RemoteResult:
    """One query result materialized from a ``result`` frame.

    The wire twin of :class:`~repro.engine.result.QueryResult`: ``columns``
    maps names to the numpy arrays the frame carried (writable, of the
    server's dtypes — :func:`~repro.server.protocol.decode_frame` copies each
    buffer out of the frame), ``scalars``
    carries pure-aggregate results, and ``cache_level``/``batched`` report how
    the server answered (``batched=True`` means the query rode a wave).
    """

    def __init__(self, payload: dict[str, Any]) -> None:
        self.row_count: int = int(payload.get("rowcount", 0))
        self.cache_level: str | None = payload.get("cache_level")
        self.batched: bool = bool(payload.get("batched", False))
        self.scalars: dict[str, float] = dict(payload.get("scalars") or {})
        self.columns: dict[str, np.ndarray] = payload.get("columns") or {}

    def scalar(self, label: str | None = None) -> float:
        """The single aggregate value (optionally by label)."""
        if not self.scalars:
            raise InterfaceError("result has no scalar aggregates")
        if label is None:
            if len(self.scalars) != 1:
                raise InterfaceError(
                    f"result has {len(self.scalars)} aggregates; pass a label"
                )
            return next(iter(self.scalars.values()))
        if label not in self.scalars:
            raise InterfaceError(f"no aggregate labelled {label!r}")
        return self.scalars[label]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.scalars:
            return f"RemoteResult(scalars={self.scalars})"
        return (
            f"RemoteResult(rows={self.row_count}, "
            f"columns={list(self.columns)}, batched={self.batched})"
        )


class AsyncCursor(_FetchCursor[RemoteResult]):
    """A cursor over one :class:`AsyncConnection` (PEP 249 fetch surface).

    ``execute``/``executemany`` are coroutines; fetching is synchronous
    because results arrive whole.  Extensions mirror the sync cursor:
    ``result``, ``results``, ``cache_level``.
    """

    # -- execution ------------------------------------------------------------

    async def execute(
        self, operation: str, parameters: Any | None = None
    ) -> "AsyncCursor":
        """Run one statement; bound statements go through batch admission."""
        self._check_open()
        frame: dict[str, Any] = {"type": "execute", "sql": operation}
        if parameters is not None:
            frame["params"] = _wire_params(parameters)
        reply = await self._connection._request(frame)
        self._install([RemoteResult(reply)])
        return self

    async def executemany(
        self, operation: str, seq_of_parameters: Sequence[Any]
    ) -> "AsyncCursor":
        """Run one placeholder statement once per parameter set.

        Every binding is admitted separately, so they batch both with each
        other and with queries of *other* connections arriving in the same
        admission window.
        """
        self._check_open()
        reply = await self._connection._request(
            {
                "type": "executemany",
                "sql": operation,
                "params": [_wire_params(p) for p in seq_of_parameters],
            }
        )
        self._install([RemoteResult(payload) for payload in reply.get("results", [])])
        return self


class AsyncPreparedStatement:
    """A statement prepared server-side, addressed by its statement id.

    Executions skip text transmission and parsing entirely: the frame carries
    the id plus bindings, the server binds into the already-compiled plan and
    the query joins the next admission wave.
    """

    def __init__(self, connection: "AsyncConnection", reply: dict[str, Any]) -> None:
        self._connection = connection
        self._statement = reply["statement"]
        self._sql = reply.get("sql", "")
        self._parameter_count = int(reply.get("parameters", 0))
        self._paramstyle = reply.get("paramstyle", "none")

    @property
    def sql(self) -> str:
        return self._sql

    @property
    def parameter_count(self) -> int:
        return self._parameter_count

    @property
    def paramstyle(self) -> str:
        return self._paramstyle

    async def execute(self, parameters: Any = ()) -> RemoteResult:
        """Bind and run once; the result frame becomes a :class:`RemoteResult`."""
        reply = await self._connection._request(
            {
                "type": "execute",
                "statement": self._statement,
                "params": _wire_params(parameters),
            }
        )
        return RemoteResult(reply)

    async def executemany(
        self, seq_of_parameters: Sequence[Any]
    ) -> list[RemoteResult]:
        """Run once per parameter set (each binding admitted into the waves)."""
        reply = await self._connection._request(
            {
                "type": "executemany",
                "statement": self._statement,
                "params": [_wire_params(p) for p in seq_of_parameters],
            }
        )
        return [RemoteResult(payload) for payload in reply.get("results", [])]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncPreparedStatement({self._sql!r}, "
            f"parameters={self._parameter_count}, style={self._paramstyle})"
        )


class AsyncAdmin:
    """Schema, data and adaptive-strategy administration over the wire."""

    def __init__(self, connection: "AsyncConnection") -> None:
        self._connection = connection

    async def _call(self, op: str, **args: Any) -> Any:
        reply = await self._connection._request(
            {"type": "admin", "op": op, "args": args}
        )
        return reply.get("value")

    async def create_table(self, name: str, columns: dict[str, Any]) -> None:
        await self._call("create_table", name=name, columns=dict(columns))

    async def drop_table(self, name: str) -> None:
        await self._call("drop_table", name=name)

    async def bulk_load(self, table: str, data: dict[str, Any]) -> None:
        await self._call("bulk_load", table=table, data=_wire_data(data))

    async def insert(self, table: str, data: dict[str, Any]) -> None:
        await self._call("insert", table=table, data=_wire_data(data))

    async def delete(self, table: str, oids: Any) -> None:
        await self._call("delete", table=table, oids=np.asarray(oids))

    async def enable_adaptive(self, table: str, column: str, **options: Any) -> None:
        await self._call(
            "enable_adaptive", table=table, column=column, options=options
        )

    async def disable_adaptive(self, table: str, column: str) -> None:
        await self._call("disable_adaptive", table=table, column=column)

    async def table_names(self) -> list[str]:
        return await self._call("table_names")

    async def cache_stats(self) -> dict[str, Any]:
        """Plan-cache and batch counters of the server's engine."""
        return await self._call("cache_stats")

    async def explain(self, sql: str) -> str:
        return await self._call("explain", sql=sql)

    async def admission_stats(self) -> dict[str, Any]:
        """Live admission counters: waves, wave sizes, backpressure, knobs.

        Behind a multi-replica server the payload adds ``per_replica`` —
        waves, members and queue depth per replica shard.
        """
        return await self._call("admission_stats")

    async def router_stats(self) -> dict[str, Any]:
        """Fleet observability: per-replica qps, queue depth, health, divergence.

        Every server is a fleet — a single-engine server is a fleet of one —
        so the reply always has one shape: per-replica service counters,
        queue depths and segment counts, routing counters, the health
        machine's states and counters, cluster assignments, traffic shares,
        the modeled-bytes matrix and the last ``retune`` report.
        """
        return await self._call("router_stats")

    async def knobs(self) -> list[dict[str, Any]]:
        """The server's live knob table: one row per knob the server carries.

        Each row carries ``name``, ``layer``, ``value``, ``default``,
        ``low``/``high`` bounds and a description — the rows of
        :data:`repro.tuning.knobs.KNOBS`.
        """
        return await self._call("knobs")

    async def set_knobs(self, values: dict[str, Any]) -> dict[str, float]:
        """Validate and apply knob changes server-side (all-or-nothing).

        Returns the applied ``{name: value}`` mapping; an out-of-bounds or
        constraint-violating value rejects the whole batch with an error
        frame and leaves every knob untouched.
        """
        return await self._call("set_knobs", values=dict(values))


class AsyncConnection:
    """One pipelined client connection to a :class:`~repro.server.ReproServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        host: str | None = None,
        port: int | None = None,
        request_timeout: float | None = None,
        reconnect: bool = False,
        reconnect_backoff_s: float = 0.05,
        retry_reads: bool = False,
        injector: Any | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self.request_timeout = request_timeout
        self._reconnect_enabled = bool(reconnect)
        self.reconnect_backoff_s = float(reconnect_backoff_s)
        self._retry_reads = bool(retry_reads)
        self._injector = injector
        self._ids = itertools.count(1)
        #: In send order: request id -> (future, deadline or None, frame type).
        self._pending: dict[int, tuple[asyncio.Future, float | None, Any]] = {}
        #: The one deadline timer, armed while a request may be pending.
        self._timer: asyncio.TimerHandle | None = None
        self._receive_task: asyncio.Task | None = None
        self._closed = False
        self._user_closed = False
        self._reconnect_lock = asyncio.Lock()
        #: Successful redials / retried requests (observability for tests).
        self.reconnects = 0
        self.retries = 0
        self._admin = AsyncAdmin(self)
        self.server_info: dict[str, Any] = {}

    @classmethod
    async def _open(cls, host: str, port: int, **knobs: Any) -> "AsyncConnection":
        reader, writer = await asyncio.open_connection(host, port)
        connection = cls(reader, writer, host=host, port=port, **knobs)
        connection._receive_task = asyncio.get_running_loop().create_task(
            connection._receive(), name="repro-aio-receive"
        )
        try:
            await connection._handshake()
        except BaseException:
            await connection._teardown()
            raise
        return connection

    async def _handshake(self) -> None:
        reply = await self._request_once(
            {"type": "hello", "protocol": PROTOCOL_VERSION, "client": "repro.aio"}
        )
        self.server_info = {
            key: reply.get(key) for key in ("server", "version", "protocol", "knobs")
        }

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Closed *for use*: explicitly closed by the user, or transport-dead
        with no way back (``reconnect=False``).  A reconnect-enabled
        connection whose socket dropped is degraded, not closed — the next
        request redials."""
        if self._user_closed:
            return True
        return self._closed and not self._reconnect_enabled

    async def close(self) -> None:
        """Orderly shutdown: flush outstanding responses, then drop the socket."""
        if self._user_closed:
            return
        self._user_closed = True
        already_dead = self._closed
        self._closed = True
        if not already_dead:
            try:
                await self._request_once({"type": "close"}, during_close=True)
            except Exception:
                pass  # the server vanished first; tear down locally regardless
        await self._teardown()

    async def _teardown(self) -> None:
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._receive_task is not None:
            self._receive_task.cancel()
            try:
                await self._receive_task
            except (asyncio.CancelledError, Exception):
                pass
            self._receive_task = None
        self._fail_pending(OperationalError("connection is closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "AsyncConnection":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    def _check_open(self) -> None:
        if self._user_closed:
            raise InterfaceError("connection is closed")
        if self._closed and not self._reconnect_enabled:
            raise InterfaceError("connection is closed")

    # -- statement surfaces ---------------------------------------------------

    def cursor(self) -> AsyncCursor:
        """A new cursor over this connection."""
        self._check_open()
        return AsyncCursor(self)

    async def prepare(self, sql: str) -> AsyncPreparedStatement:
        """Prepare a placeholder statement server-side; returns its handle."""
        self._check_open()
        reply = await self._request({"type": "prepare", "sql": sql})
        return AsyncPreparedStatement(self, reply)

    async def execute(
        self, sql: str, parameters: Any | None = None
    ) -> AsyncCursor:
        """Shorthand: a fresh cursor with ``sql`` already executed."""
        cursor = self.cursor()
        return await cursor.execute(sql, parameters)

    async def executemany(
        self, sql: str, seq_of_parameters: Sequence[Any]
    ) -> AsyncCursor:
        """Shorthand: a fresh cursor with ``sql`` executed per parameter set."""
        cursor = self.cursor()
        return await cursor.executemany(sql, seq_of_parameters)

    # -- transaction stubs (PEP 249 parity with the sync facade) ---------------

    async def commit(self) -> None:
        """No-op: every statement is immediately visible (no transactions)."""
        self._check_open()

    async def rollback(self) -> None:
        """Unsupported: the engine keeps no undo log."""
        self._check_open()
        raise NotSupportedError("this engine has no transactions to roll back")

    # -- administration --------------------------------------------------------

    @property
    def admin(self) -> AsyncAdmin:
        """DDL, bulk loading, adaptive controls and server stats."""
        return self._admin

    # -- plumbing --------------------------------------------------------------

    async def _request(
        self, frame: dict[str, Any], *, during_close: bool = False
    ) -> dict[str, Any]:
        """Send one frame and await its correlated response; retry if allowed.

        ERROR frames become raised PEP 249 exceptions (rebuilt by wire name),
        so every caller sees the same exception types the in-process facade
        raises.  On a :class:`TransientError` — dropped socket, request
        timeout, server-side failover exhaustion — the request reconnects
        (when ``reconnect=True``) and, for idempotent text-bearing reads
        under ``retry_reads=True``, is re-sent with exponential backoff.
        """
        if during_close:
            return await self._request_once(frame, during_close=True)
        if self._user_closed:
            raise InterfaceError("connection is closed")
        attempt = 0
        while True:
            if self._closed:
                if not self._reconnect_enabled:
                    raise InterfaceError("connection is closed")
                await self._ensure_connected()
            try:
                return await self._request_once(frame)
            except TransientError:
                if not self._may_retry(frame, attempt):
                    raise
            attempt += 1
            self.retries += 1
            await asyncio.sleep(self.reconnect_backoff_s * 2 ** (attempt - 1))

    def _may_retry(self, frame: dict[str, Any], attempt: int) -> bool:
        """Is this frame safe (and allowed) to re-send after a transient failure?

        Only text-bearing ``execute``/``executemany`` — bound selects are
        idempotent above adaptation and re-prepare by SQL text on the server.
        Statement-id frames never retry: the server-side id registry dies
        with the connection, and a retried id would hit the wrong (or no)
        statement.
        """
        return (
            self._retry_reads
            and attempt < RETRY_ATTEMPTS
            and frame.get("type") in ("execute", "executemany")
            and isinstance(frame.get("sql"), str)
        )

    async def _ensure_connected(self) -> None:
        """Redial with exponential backoff and re-handshake (reconnect mode)."""
        async with self._reconnect_lock:
            if not self._closed:
                return  # another request already reconnected
            if self._host is None or self._port is None:
                raise TransientError(
                    "connection lost and no address to reconnect to"
                )
            backoff = self.reconnect_backoff_s
            last: BaseException | None = None
            for _ in range(RECONNECT_ATTEMPTS):
                try:
                    reader, writer = await asyncio.open_connection(
                        self._host, self._port
                    )
                except OSError as exc:
                    last = exc
                    await asyncio.sleep(backoff)
                    backoff *= 2
                    continue
                if self._receive_task is not None and not self._receive_task.done():
                    self._receive_task.cancel()
                old_writer = self._writer
                self._reader, self._writer = reader, writer
                self._closed = False
                self._receive_task = asyncio.get_running_loop().create_task(
                    self._receive(), name="repro-aio-receive"
                )
                old_writer.close()
                try:
                    await self._handshake()
                except BaseException as exc:  # noqa: BLE001 - try the next dial
                    last = exc
                    self._closed = True
                    await asyncio.sleep(backoff)
                    backoff *= 2
                    continue
                self.reconnects += 1
                return
            raise TransientError(
                f"reconnect to {self._host}:{self._port} failed after "
                f"{RECONNECT_ATTEMPTS} attempts: {last}"
            )

    async def _request_once(
        self, frame: dict[str, Any], *, during_close: bool = False
    ) -> dict[str, Any]:
        """One send/await round-trip, under the request deadline."""
        if self._closed and not during_close:
            raise InterfaceError("connection is closed")
        if self._injector is not None:
            # The injected transport failure: abort the socket mid-send, the
            # way a real network drop looks to this side of the connection.
            if self._injector.fire("client.send", op=str(frame.get("type"))) == "drop":
                self._abort_transport()
                raise TransientError("injected connection drop at client.send")
        request_id = next(self._ids)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        deadline = None
        if self.request_timeout is not None:
            deadline = loop.time() + self.request_timeout
            if self._timer is None:
                self._timer = loop.call_at(deadline, self._expire)
        self._pending[request_id] = (future, deadline, frame.get("type"))
        try:
            try:
                write_frame(self._writer, {**frame, "id": request_id})
            except (TypeError, ValueError, ProtocolError) as exc:
                raise ProgrammingError(f"the request cannot be encoded: {exc}") from exc
            await self._writer.drain()
            return await future
        except (ConnectionError, OSError) as exc:
            raise TransientError(f"connection lost: {exc}") from exc
        finally:
            self._pending.pop(request_id, None)

    def _expire(self) -> None:
        """The deadline timer: fail every expired request, re-arm for the oldest left.

        An expired request leaves the correlation map here, so its late
        response is dropped — never delivered stale.
        """
        self._timer = None
        loop = asyncio.get_running_loop()
        now = loop.time()
        for request_id, (future, deadline, kind) in list(self._pending.items()):
            if deadline is None:
                continue
            if deadline > now:
                self._timer = loop.call_at(deadline, self._expire)
                return
            del self._pending[request_id]
            if not future.done():
                future.set_exception(TransientError(
                    f"request {kind!r} timed out after {self.request_timeout}s"
                ))

    def _abort_transport(self) -> None:
        transport = self._writer.transport
        if transport is not None:
            transport.abort()

    async def _receive(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                entry = self._pending.get(frame.get("id"))
                if entry is None or entry[0].done():
                    continue
                future = entry[0]
                if frame.get("type") == "error":
                    future.set_exception(
                        error_from_name(
                            frame.get("error", ""), frame.get("message", "")
                        )
                    )
                else:
                    future.set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._closed = True
            self._fail_pending(TransientError(f"connection lost: {exc}"))
            return
        self._closed = True
        self._fail_pending(TransientError("connection closed by server"))

    def _fail_pending(self, exc: Exception) -> None:
        for future, _, _ in list(self._pending.values()):
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"AsyncConnection({state}, server={self.server_info.get('version')})"


def _wire_params(parameters: Any) -> Any:
    """Bindings as JSON-ready values (named mappings pass through as objects)."""
    if isinstance(parameters, dict):
        return {str(key): value for key, value in parameters.items()}
    return list(parameters)


def _wire_data(data: dict[str, Any]) -> dict[str, np.ndarray]:
    """Columns as arrays for bulk_load/insert admin frames (they cross as raw buffers)."""
    return {name: np.asarray(values) for name, values in data.items()}


async def connect(
    host: str = "127.0.0.1",
    port: int = 7733,
    *,
    connect_timeout: float | None = None,
    request_timeout: float | None = None,
    reconnect: bool = False,
    reconnect_backoff_s: float = 0.05,
    retry_reads: bool = False,
    injector: Any | None = None,
) -> AsyncConnection:
    """Open an async connection to a running repro server.

    The coroutine completes after the HELLO handshake; the server's version
    and admission knobs are available as ``connection.server_info``.  See the
    module docstring for the resilience knobs (``request_timeout``,
    ``reconnect``, ``retry_reads``); ``injector`` arms a
    :class:`~repro.fault.FaultInjector` on the ``client.send`` site for
    deterministic chaos tests.
    """
    opening = AsyncConnection._open(
        host,
        port,
        request_timeout=request_timeout,
        reconnect=reconnect,
        reconnect_backoff_s=reconnect_backoff_s,
        retry_reads=retry_reads,
        injector=injector,
    )
    if connect_timeout is not None:
        return await asyncio.wait_for(opening, connect_timeout)
    return await opening

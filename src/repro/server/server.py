"""The asyncio server front-end: many connections, one fleet, batched waves.

:class:`ReproServer` listens on a TCP socket speaking the length-prefixed
protocol of :mod:`repro.server.protocol` (JSON envelopes, result columns as
raw numpy buffers) and multiplexes every client over one
:class:`~repro.cluster.Router` — ``replicas=1``, the default, is a fleet of
one engine.  All work on a replica's engine runs on that replica's
single worker thread, so the paper's piggy-backed adaptation never races
itself; admin ops are serialized on the server's own admin thread, and
concurrency lives in the admission layer, where bound selects from different
connections are grouped into vectorized waves (see
:mod:`repro.server.admission`).

Typical embedding::

    async with ReproServer(database, port=0) as server:
        connection = await repro.aio.connect(*server.address)
        ...

or standalone: ``python -m repro.server --port 7733``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any

import numpy as np

from repro.api.exceptions import (
    Error,
    InternalError,
    ProgrammingError,
    error_name,
    translate_exception,
    translating,
)
from repro.cluster import Router
from repro.engine.database import Database
from repro.engine.result import QueryResult
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.tuning.knobs import knob_table, set_knobs


def result_payload(result: QueryResult) -> dict[str, Any]:
    """One query result as a response body; its columns cross the wire as raw buffers."""
    if result.scalars:
        return {
            "rowcount": 1,
            "cache_level": result.cache_level,
            "batched": result.batched,
            "scalars": {label: float(value) for label, value in result.scalars.items()},
            "columns": {},
        }
    return {
        "rowcount": result.row_count,
        "cache_level": result.cache_level,
        "batched": result.batched,
        "columns": result.columns,
    }


def _error_frame(request_id: Any, exc: BaseException) -> dict[str, Any]:
    mapped = exc if isinstance(exc, Error) else translate_exception(exc)
    return {
        "type": "error",
        "id": request_id,
        "error": error_name(mapped),
        "message": str(mapped),
    }


class ReproServer:
    """An asyncio front-end serving a fleet of engines to many client connections.

    ``database`` becomes replica 0 of a :class:`~repro.cluster.Router` of
    ``replicas`` engines (``router_knobs`` and ``injector`` go to the
    router); with ``replicas=1`` it is the only one.

    The admission knobs (``batch_window_us``, ``max_inflight``, ``max_wave``,
    ``max_inflight_per_connection``, ``overflow``) are forwarded to the
    :class:`~repro.server.admission.AdmissionController` and advertised to
    every client in the HELLO response.  ``port=0`` binds an ephemeral port;
    the bound address is available as :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        database: Database | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_us: float = 250.0,
        max_inflight: int = 1024,
        max_wave: int = 256,
        max_inflight_per_connection: int | None = None,
        overflow: str = "error",
        replicas: int = 1,
        router_knobs: dict[str, Any] | None = None,
        wave_deadline_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        auto_rebuild: bool = True,
        drain_timeout_s: float = 5.0,
        injector: Any | None = None,
    ) -> None:
        self.database = database if database is not None else Database()
        knobs = dict(router_knobs or {})
        if injector is not None:
            knobs.setdefault("injector", injector)
        # The seed database becomes replica 0; waves are routed per replica
        # by the admission layer and DDL fans out (see repro.cluster).
        self.router = Router(self.database, replicas, **knobs)
        try:
            self.admission = AdmissionController(
                self.router,
                batch_window_us=batch_window_us,
                max_inflight=max_inflight,
                max_wave=max_wave,
                max_inflight_per_connection=max_inflight_per_connection,
                overflow=overflow,
                wave_deadline_s=wave_deadline_s,
                max_retries=max_retries,
                retry_backoff_s=retry_backoff_s,
                auto_rebuild=auto_rebuild,
            )
        except ValueError:
            self.router.close()  # a rejected setting must not leave its workers running
            raise
        self._admin = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-admin")
        self.drain_timeout_s = float(drain_timeout_s)
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_ClientConnection] = set()
        self._connection_ids = itertools.count(1)
        self._stopped = False
        self.address: tuple[str, int] | None = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "ReproServer":
        """Bind the socket and start the admission flush loop."""
        if self._server is not None:
            return self
        await self.admission.start()
        self._server = await asyncio.start_server(self._accept, self._host, self._port)
        name = self._server.sockets[0].getsockname()
        self.address = (name[0], name[1])
        return self

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self.address is None:
            raise RuntimeError("server is not started")
        return self.address[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (for ``python -m repro.server``)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight work, then close everything.

        Ordering matters: first the listener closes (no new connections),
        then the admission layer **drains** — queued requests and in-flight
        waves run to completion while new submissions are refused — then each
        connection flushes its response pump so completed answers reach their
        clients before the sockets die.  Only after that are the reader
        tasks cancelled, the admin thread joined and the router closed
        (hard-timeout joins: a wedged replica worker is abandoned, never
        waited on forever).
        """
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.admission.drain(timeout=self.drain_timeout_s)
        for connection in list(self._connections):
            await connection.drain_responses(timeout=self.drain_timeout_s)
        for connection in list(self._connections):
            await connection.shutdown()
        await self.admission.stop()
        self._admin.shutdown(wait=True)
        self.router.close()  # closes every replica's engine

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- internals ------------------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _ClientConnection(
            self, reader, writer, next(self._connection_ids)
        )
        self._connections.add(connection)
        try:
            await connection.run()
        except asyncio.CancelledError:
            # A graceful stop cancels the handlers of connections still open:
            # that ends the handler normally (asyncio's stream callback would
            # otherwise report the cancelled task as an error).
            pass
        finally:
            self._connections.discard(connection)

    def admin_call(self, fn: Any, *args: Any) -> asyncio.Future:
        """Run ``fn(*args)`` on the admin thread, serialized with every other admin op."""
        return asyncio.get_running_loop().run_in_executor(self._admin, partial(fn, *args))


async def serve(
    database: Database | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **knobs: Any,
) -> ReproServer:
    """Start a :class:`ReproServer` and return it (callers ``await .stop()``)."""
    server = ReproServer(database, host=host, port=port, **knobs)
    return await server.start()


class _ClientConnection:
    """One client connection: a frame reader plus an ordered response pump.

    The reader handles frames sequentially but does not wait for admitted
    queries: their futures are pushed onto the response queue and a separate
    pump task writes each response as it resolves, so a connection can keep
    many queries in flight (pipelining) while `submit` backpressure — the
    per-connection cap — naturally pauses the reader of a firehose client.
    A reply that cannot be encoded answers its request with an error frame;
    the pump keeps serving the connection.
    """

    def __init__(
        self,
        server: ReproServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        connection_id: int,
    ) -> None:
        self._server = server
        self._reader = reader
        self._writer = writer
        self._id = connection_id
        self._statements: dict[int, Any] = {}
        self._by_sql: dict[str, Any] = {}
        self._statement_ids = itertools.count(1)
        self._responses: asyncio.Queue = asyncio.Queue()
        self._pump_task: asyncio.Task | None = None
        self._task: asyncio.Task | None = None
        self._pump_done = False

    async def shutdown(self) -> None:
        if self._task is not None and not self._task.done():
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task

    async def drain_responses(self, timeout: float = 5.0) -> None:
        """Flush every queued response to the socket (graceful server stop).

        By the time this runs the admission layer has drained, so the pump's
        remaining futures are resolved — this just lets it write them out.
        The reader may still be alive; it is cancelled afterwards and skips
        re-cancelling a pump that already retired.
        """
        if self._pump_done or self._pump_task is None or self._pump_task.done():
            return
        self._responses.put_nowait(None)
        # CancelledError here is the *pump's* (a vanished client's reader
        # tore it down mid-flush), not ours — swallow it like a timeout.
        with contextlib.suppress(asyncio.TimeoutError, asyncio.CancelledError):
            await asyncio.wait_for(asyncio.shield(self._pump_task), timeout)
        self._pump_done = self._pump_task.done()

    # -- the reader loop ------------------------------------------------------

    async def run(self) -> None:
        self._task = asyncio.current_task()
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump(), name=f"repro-conn-{self._id}-pump"
        )
        try:
            if not await self._handshake():
                return
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                if frame.get("type") == "close":
                    self._push(("frame", {"type": "closed", "id": frame.get("id")}))
                    await self._flush_pump()
                    break
                await self._dispatch(frame)
        except ProtocolError as exc:
            with contextlib.suppress(Exception):
                write_frame(
                    self._writer,
                    {"type": "error", "id": None, "error": "ProtocolError",
                     "message": str(exc)},
                )
                await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._server.admission.forget_connection(self._id)
            if self._pump_task is not None and not self._pump_done:
                self._pump_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._pump_task
            self._swallow_orphans()
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()

    async def _handshake(self) -> bool:
        frame = await read_frame(self._reader)
        if frame is None:
            return False
        if frame.get("type") != "hello":
            self._push(
                ("frame", _error_frame(frame.get("id"),
                                       ProgrammingError("expected a hello frame first")))
            )
            await self._flush_pump()
            return False
        if frame.get("protocol") != PROTOCOL_VERSION:
            self._push(
                ("frame", _error_frame(
                    frame.get("id"),
                    ProgrammingError(
                        f"protocol {frame.get('protocol')!r} not supported "
                        f"(server speaks {PROTOCOL_VERSION})"
                    ),
                ))
            )
            await self._flush_pump()
            return False
        from repro import __version__

        self._push(
            ("frame", {
                "type": "hello",
                "id": frame.get("id"),
                "server": "repro",
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "knobs": self._server.admission.knobs(),
            })
        )
        return True

    async def _dispatch(self, frame: dict[str, Any]) -> None:
        request_id = frame.get("id")
        try:
            ftype = frame.get("type")
            if ftype == "prepare":
                await self._handle_prepare(request_id, frame)
            elif ftype == "execute":
                await self._handle_execute(request_id, frame)
            elif ftype == "executemany":
                await self._handle_executemany(request_id, frame)
            elif ftype == "admin":
                await self._handle_admin(request_id, frame)
            else:
                raise ProgrammingError(f"unknown frame type {ftype!r}")
        except asyncio.CancelledError:
            raise
        except ProtocolError:
            raise
        except BaseException as exc:  # noqa: BLE001 - becomes an ERROR frame
            self._push(("frame", _error_frame(request_id, exc)))

    # -- frame handlers -------------------------------------------------------

    async def _handle_prepare(self, request_id: Any, frame: dict[str, Any]) -> None:
        prepared = await self._prepared_for(frame)
        statement_id = next(self._statement_ids)
        self._statements[statement_id] = prepared
        self._push(
            ("frame", {
                "type": "prepared",
                "id": request_id,
                "statement": statement_id,
                "parameters": prepared.binding.count,
                "paramstyle": prepared.binding.style,
                "sql": prepared.sql,
            })
        )

    async def _handle_execute(self, request_id: Any, frame: dict[str, Any]) -> None:
        params = frame.get("params")
        if params is None and frame.get("statement") is None:
            # Literal SQL: the conventional compiled fast path, forwarded by
            # the router onto one replica's worker (serialized with its waves).
            sql = self._sql_of(frame)
            future = self._server.admin_call(self._server.router.execute, sql)
            self._push(("one", request_id, future))
            return
        prepared = await self._prepared_for(frame)
        values = self._bind(prepared, params if params is not None else [])
        future = await self._server.admission.submit(self._id, prepared, values)
        self._push(("one", request_id, future))

    async def _handle_executemany(self, request_id: Any, frame: dict[str, Any]) -> None:
        prepared = await self._prepared_for(frame)
        seq = frame.get("params") or []
        try:
            bound = prepared.binding.bind_many(seq)
        except Exception as exc:
            raise translate_exception(exc) from None
        futures = []
        for values in bound:
            futures.append(
                await self._server.admission.submit(self._id, prepared, values)
            )
        self._push(("many", request_id, futures))

    async def _handle_admin(self, request_id: Any, frame: dict[str, Any]) -> None:
        op = frame.get("op")
        args = frame.get("args") or {}
        if op == "admission_stats":
            admission = self._server.admission
            value: Any = {
                **admission.stats.as_dict(
                    admission.pending, admission.replica_pending()
                ),
                "connections": len(admission.stats.connections_seen),
                "knobs": admission.knobs(),
            }
        else:
            value = await self._server.admin_call(self._admin_call, op, args)
        self._push(("frame", {"type": "result", "id": request_id, "value": value}))

    def _admin_call(self, op: str, args: dict[str, Any]) -> Any:
        """Admin dispatch; runs on the server's admin thread.

        Every op goes to the router, whose DDL/load ops fan out to every
        replica and whose ``cache_stats`` merges per-replica counters
        (``batch`` / ``total`` plus a ``replicas`` list).
        """
        router = self._server.router
        with translating():
            if op == "create_table":
                router.create_table(args["name"], args["columns"])
            elif op == "drop_table":
                router.drop_table(args["name"])
            elif op == "bulk_load":
                router.bulk_load(args["table"], args["data"])
            elif op == "insert":
                router.insert(args["table"], args["data"])
            elif op == "delete":
                router.delete(args["table"], np.asarray(args["oids"], dtype=np.int64))
            elif op == "enable_adaptive":
                router.enable_adaptive(
                    args["table"], args["column"], **args.get("options", {})
                )
            elif op == "disable_adaptive":
                router.disable_adaptive(args["table"], args["column"])
            elif op == "table_names":
                return router.table_names()
            elif op == "cache_stats":
                return router.cache_stats()
            elif op == "explain":
                return router.explain(args["sql"])
            elif op == "knobs":
                return knob_table(router, admission=self._server.admission)
            elif op == "set_knobs":
                return set_knobs(router, args["values"], admission=self._server.admission)
            elif op == "router_stats":
                stats = router.router_stats()
                for replica, depth in zip(
                    stats["replicas"], self._server.admission.replica_pending()
                ):
                    replica["queue_depth"] = depth
                return stats
            else:
                raise ProgrammingError(f"unknown admin op {op!r}")
        return None

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _sql_of(frame: dict[str, Any]) -> str:
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise ProgrammingError("frame requires an 'sql' string")
        return sql

    async def _prepared_for(self, frame: dict[str, Any]) -> Any:
        """The prepared plan a frame refers to (by statement id or by text)."""
        statement_id = frame.get("statement")
        if statement_id is not None:
            prepared = self._statements.get(statement_id)
            if prepared is None:
                raise ProgrammingError(f"unknown prepared statement id {statement_id}")
            return prepared
        sql = self._sql_of(frame)
        router = self._server.router
        prepared = self._by_sql.get(sql)
        if prepared is None or not router.plan_cache.is_current(prepared):
            prepared = await self._server.admin_call(router.prepare_statement, sql)
            self._by_sql[sql] = prepared
        return prepared

    @staticmethod
    def _bind(prepared: Any, params: Any) -> tuple[float, ...]:
        # The hottest per-request call: a try/except instead of the
        # `translating()` context manager (which costs two generator switches
        # per frame even when nothing is raised).
        try:
            return prepared.binding.bind(params)
        except Exception as exc:
            raise translate_exception(exc) from None

    def _push(self, item: Any) -> None:
        self._responses.put_nowait(item)

    async def _flush_pump(self) -> None:
        """Let the pump write everything queued, then retire it."""
        self._responses.put_nowait(None)
        if self._pump_task is not None:
            await self._pump_task
        self._pump_done = True

    def _swallow_orphans(self) -> None:
        """Cancel/retrieve response futures the pump never consumed."""
        while not self._responses.empty():
            item = self._responses.get_nowait()
            if not item or item[0] == "frame":
                continue
            futures = item[2] if isinstance(item[2], list) else [item[2]]
            for future in futures:
                if not future.done():
                    future.cancel()
                elif not future.cancelled():
                    future.exception()  # mark retrieved

    # -- the response pump ----------------------------------------------------

    async def _pump(self) -> None:
        while True:
            item = await self._responses.get()
            if item is None:
                break
            kind = item[0]
            if kind == "frame":
                frame = item[1]
            elif kind == "one":
                request_id, future = item[1], item[2]
                try:
                    result = await future
                except asyncio.CancelledError:
                    if future.cancelled():
                        continue  # the client is gone; nothing to answer
                    raise
                except BaseException as exc:  # noqa: BLE001 - ERROR frame
                    frame = _error_frame(request_id, exc)
                else:
                    frame = {"type": "result", "id": request_id,
                             **result_payload(result)}
            else:  # "many"
                request_id, futures = item[1], item[2]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                errors = [o for o in outcomes if isinstance(o, BaseException)]
                if errors:
                    frame = _error_frame(request_id, errors[0])
                else:
                    frame = {
                        "type": "result",
                        "id": request_id,
                        "results": [result_payload(result) for result in outcomes],
                    }
            try:
                data = encode_frame(frame)
            except Exception as exc:  # noqa: BLE001 - this request alone fails
                data = encode_frame(_error_frame(
                    frame.get("id"), InternalError(f"the reply cannot be encoded: {exc}")
                ))
            try:
                self._writer.write(data)
                await self._writer.drain()
            except (ConnectionError, OSError):
                break

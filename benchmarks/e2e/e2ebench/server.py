"""``server_pipelined``: the only workload through the wire.

A ``python -m repro.server`` child, the table created / loaded / made adaptive
over the wire, then 2 ``repro.aio`` connections × 16 in-flight prepared
``EXECUTE`` each — 32 outstanding, closed loop: a caller sends its next query
when its previous reply has arrived.

The server exposes no IO accountant over the wire, so the three byte metrics
come from an in-process *twin*: the same table and the same streams through
``PreparedStatement.executemany`` in waves of the 32 queries that are
outstanding.  The twin is exact for a seed; it is the engine's share of the
work, and the traced pass also times it to split engine from server overhead.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any

import numpy as np

import repro.api.aio as wire_client
from repro.server.protocol import decode_frame, encode_frame

from e2ebench import inputs
from e2ebench.inprocess import (
    ENGINE_NARROW, EngineProbe, engine_layers, frontend_layers, open_table,
)
from e2ebench.inputs import Ops, Table, rng_for
from e2ebench.measure import Measurement, Observed, fast_per_op, scaled, sizes
from e2ebench.server_proc import ServerProcess
from e2ebench.tracing import Tracer

SPEC = ENGINE_NARROW  # same table and segmentation as engine_narrow; wider ranges, no literals
CONNECTIONS = 2
IN_FLIGHT = 16  # per connection
RANGE_WIDTH = 0.36  # degrees: ~100 rows per reply
INSTANCES = 4  # at --seconds 10; each a fresh server child, loaded and warmed up
SLICES = 6  # timed slices per instance
OPS = 3_200  # per slice
WARMUP = 4_000
REPLAYED = 2_000  # captured frames re-encoded / re-decoded for the api.* metrics


def _stream(rng: np.random.Generator, table: Table, count: int) -> Ops:
    return inputs.read_ops(
        rng, table, *inputs.uniform_ranges(rng, count, inputs.RA_DOMAIN, RANGE_WIDTH)
    )


async def pipeline(statements: list[Any], ops: Ops) -> Observed:
    """Keep ``IN_FLIGHT`` queries outstanding on every connection until ``ops`` is done."""
    count = len(ops)
    lows, highs, sampled = ops.lows.tolist(), ops.highs.tolist(), ops.samples
    latencies, counts, sums = [0.0] * count, [-1] * count, [0] * count
    kept: dict[int, np.ndarray] = {}
    errors: list[str] = []
    todo = iter(range(count))

    async def caller(statement: Any) -> None:
        for index in todo:
            begin = perf_counter()
            try:
                result = await statement.execute((lows[index], highs[index]))
                ids = result.columns["objid"]
                counts[index] = ids.size
                sums[index] = int(ids.sum())
                if index in sampled:
                    kept[index] = ids
            except Exception as exc:  # noqa: BLE001 - errors and refusals are counted
                errors.append(repr(exc))
            latencies[index] = perf_counter() - begin

    started = perf_counter()
    await asyncio.gather(
        *(caller(statements[k % len(statements)]) for k in range(IN_FLIGHT * len(statements)))
    )
    wall = perf_counter() - started
    failed = inputs.count_failures(ops, counts, sums, kept)
    return Observed(wall, np.asarray(latencies), count, failed, errors[0] if errors else None)


async def _start(table: Table) -> tuple[ServerProcess, list[Any], list[Any]]:
    """A server child with the table loaded, plus the connections and statements on it."""
    server = ServerProcess("--batch-window-us", "200")
    try:
        connections = [await server.connect() for _ in range(CONNECTIONS)]
        admin = connections[0].admin
        await admin.create_table("p", {"objid": "int64", SPEC.column: "float64"})
        await admin.bulk_load("p", {"objid": table.objid, SPEC.column: table.values})
        await admin.enable_adaptive("p", SPEC.column, **SPEC.adaptive(table.values.nbytes))
        statements = [await connection.prepare(SPEC.sql) for connection in connections]
    except BaseException:
        server.stop()
        raise
    return server, connections, statements


def twin_replay(
    table: Table, warm: Ops, streams: list[Ops], wave: int, tracer: Tracer | None = None
):
    """The same streams in process, ``wave`` queries per ``executemany``.

    Returns the connection, its adaptive column, the wall seconds of the timed
    streams and — with a tracer — the :class:`EngineProbe` they ran under.
    """
    connection = open_table(table.values, SPEC.column, SPEC.adaptive(table.values.nbytes))
    statement = connection.prepare(SPEC.sql)
    adaptive = connection.admin.adaptive_handle("p", SPEC.column).adaptive

    def replay(ops: Ops) -> float:
        bounds = list(zip(ops.lows.tolist(), ops.highs.tolist()))
        begin = perf_counter()
        for start in range(0, len(bounds), wave):
            statement.executemany(bounds[start:start + wave])
        return perf_counter() - begin

    replay(warm)
    probe = EngineProbe(tracer, connection.database, adaptive) if tracer else None
    return connection, adaptive, sum(replay(ops) for ops in streams), probe


async def _run(seed: int, seconds: float, trace: bool) -> Measurement:
    out = Measurement()
    instances, count = sizes(INSTANCES, OPS, seconds, 2 if trace else 0)
    warmup = scaled(WARMUP, seconds, 64)
    out.ops = {"instances": instances, "slices_per_instance": SLICES, "ops_per_slice": count,
               "warmup": warmup}
    for index in range(instances):
        # The traced pass gives every instance the same inputs, so that plain and
        # traced instances do identical work.
        rng = rng_for(seed, 0 if trace else index)
        table = Table(inputs.ra_column(rng))
        warm = _stream(rng, table, warmup)
        streams = [_stream(rng, table, count) for _ in range(SLICES)]

        out.yardstick.tick()
        begin = perf_counter()
        server, connections, statements = await _start(table)
        try:
            out.untimed.append(await pipeline(statements, warm))
            out.setup_s.append(perf_counter() - begin)
            if trace and index >= instances // 2:
                await _traced_slices(out, connections[0].admin, statements, table, warm, streams)
            else:
                for ops in streams:
                    out.yardstick.tick()
                    out.slices.append(await pipeline(statements, ops))
            out.peak_rss_mb = max(out.peak_rss_mb, server.peak_rss_mb())
            for connection in connections:
                await connection.close()
        finally:
            stderr = server.stop()
            if out.failed and stderr:
                out.spans["server_stderr"] = stderr[-4000:]
        if not trace:
            twin, adaptive, _, _ = twin_replay(table, warm, streams, CONNECTIONS * IN_FLIGHT)
            out.record_io(
                [adaptive], table.values.nbytes, warm.reads + sum(s.reads for s in streams)
            )
            twin.close()
    return out


async def _traced_slices(
    out: Measurement, admin: Any, statements: list[Any], table: Table, warm: Ops,
    streams: list[Ops],
) -> None:
    """One instance's slices with every frame captured, then the per-layer metrics."""
    requests: list[dict] = []
    replies: list[dict] = []
    write_frame, read_frame = wire_client.write_frame, wire_client.read_frame

    def capture_write(writer: Any, payload: dict) -> None:
        requests.append(payload)
        write_frame(writer, payload)

    async def capture_read(reader: Any) -> dict | None:
        payload = await read_frame(reader)
        replies.append(payload)
        return payload

    admission_before = await admin.admission_stats()
    cache_before = await admin.cache_stats()
    wire_client.write_frame, wire_client.read_frame = capture_write, capture_read
    try:
        for ops in streams:
            out.yardstick.tick()
            out.slices.append(await pipeline(statements, ops))
    finally:
        wire_client.write_frame, wire_client.read_frame = write_frame, read_frame
    admission = await admin.admission_stats()
    cache = await admin.cache_stats()
    reads = sum(ops.reads for ops in streams)

    def delta(after: dict, before: dict, *path: str) -> float:
        for key in path:
            after, before = after[key], before[key]
        return after - before

    waves = delta(admission, admission_before, "waves")
    mean_wave = delta(admission, admission_before, "admitted") / max(waves, 1)
    tracer = Tracer()
    twin, _, twin_wall, probe = twin_replay(table, warm, streams, max(1, round(mean_wave)), tracer)
    twin_s = twin_wall / reads
    half = len(out.slices) // 2
    wall_s = fast_per_op(out.slices[:half])  # a query's share of the plain instance's wall

    requests = [p for p in requests if p.get("type") == "execute"][:REPLAYED]
    replies = [p for p in replies if p and p.get("type") == "result"][:REPLAYED]
    begin = perf_counter()
    for payload in requests:
        encode_frame(payload)
    encode_s = (perf_counter() - begin) / len(requests)
    frames = [encode_frame(payload) for payload in replies]
    begin = perf_counter()
    for frame in frames:
        decode_frame(frame[4:])
    decode_s = (perf_counter() - begin) / len(frames)

    metrics = out.per_layer
    metrics.update(frontend_layers(twin.database, streams[0], SPEC))
    spans = tracer.layers()
    metrics.update(engine_layers([probe], spans, reads))  # the twin's engine, not the server's
    hits, misses = (delta(cache, cache_before, "total", k) for k in ("hits", "misses"))
    server_waves = delta(cache, cache_before, "batch", "waves")
    metrics.update({
        "engine.plan_cache_hit_ratio": hits / max(hits + misses, 1),
        "engine.batch_mean_wave":
            delta(cache, cache_before, "batch", "batched_queries") / max(server_waves, 1),
        "api.client_encode_s_per_req": encode_s,
        "api.client_decode_s_per_req": decode_s,
        "server.frame_bytes_per_reply": sum(map(len, frames)) / len(frames),
        "server.result_rows_per_reply": sum(p.get("rowcount", 0) for p in replies) / len(replies),
        "server.mean_wave": mean_wave,
        "server.waves": waves,
        "server.rejected_overflow": delta(admission, admission_before, "rejected_overflow"),
        "server.retries": delta(admission, admission_before, "retries"),
        "server.engine_twin_s_per_query": twin_s,
        "server.overhead_s_per_query": wall_s - twin_s,
        # Here the closure is the share of a query's wall that the layers seen
        # from outside explain; the rest is inside the server process.
        "trace.closure": (encode_s + decode_s + twin_s) / wall_s,
        "trace.overhead_x": fast_per_op(out.slices[half:]) / wall_s,
    })
    out.spans = {"layers": spans, "head": tracer.head(60)}
    twin.close()


def measure(seed: int, seconds: float, trace: bool) -> Measurement:
    """Run ``server_pipelined``: end-to-end pass, or the shorter traced pass."""
    return asyncio.run(_run(seed, seconds, trace))

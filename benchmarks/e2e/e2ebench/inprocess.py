"""The four in-process, single-thread workloads and the load loop they share.

All four go through ``repro.connect()``: prepared statements, literal SQL on a
cursor, and ``admin.insert`` / ``admin.delete`` — one caller, closed loop.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import repro
from repro.sql import parse

from e2ebench import inputs
from e2ebench.inputs import INSERT, LITERAL, READ, Ops, Table, rng_for
from e2ebench.measure import (
    Measurement, Observed, peak_rss_mb, scaled, sizes, trace_summary,
)
from e2ebench.tracing import Tracer

KB = 1024
FRONTEND_SAMPLE = 200  # statements timed standalone through parse / compile / optimize


@dataclass(frozen=True)
class Spec:
    """One in-process workload: its table, its adaptive strategy, its stream."""

    name: str
    column: str
    make_column: Callable[[np.random.Generator], np.ndarray]
    adaptive: Callable[[int], dict[str, Any]]  # column bytes -> enable_adaptive options
    instances: int  # at --seconds 10; each is a fresh table, built and (if steady) warmed up
    slices: int  # timed slices per instance
    ops: int  # per slice
    warmup: int  # 0: cold — the one slice starts on the unadapted column
    stream: Callable[[np.random.Generator, Table, int], Ops]

    @property
    def sql(self) -> str:
        return f"SELECT objid FROM p WHERE {self.column} BETWEEN ? AND ?"

    @property
    def literal_sql(self) -> str:
        return (
            f"SELECT objid FROM p WHERE {self.column} "
            "BETWEEN {low!r} AND {high!r}"
        )


def _narrow(rng: np.random.Generator, table: Table, count: int) -> Ops:
    lows, highs = inputs.uniform_ranges(rng, count, inputs.RA_DOMAIN, 0.036)
    return inputs.read_ops(
        rng, table, lows, highs, literal_sql=ENGINE_NARROW.literal_sql, literal_share=0.2
    )


def _uniform(selectivity: float) -> Callable[[np.random.Generator, Table, int], Ops]:
    width = selectivity * inputs.INT_DOMAIN[1]

    def stream(rng: np.random.Generator, table: Table, count: int) -> Ops:
        return inputs.read_ops(
            rng, table, *inputs.uniform_ranges(rng, count, inputs.INT_DOMAIN, width)
        )

    return stream


MODES = 4
MODE_AREA = 0.04 * inputs.RA_DOMAIN[1]
MODE_WIDTH = 0.01 * inputs.RA_DOMAIN[1]


def _multimodal(rng: np.random.Generator, table: Table, count: int) -> Ops:
    modes = inputs.mode_positions(rng, inputs.RA_DOMAIN, MODES, MODE_AREA)
    return inputs.read_ops(
        rng, table, *inputs.multimodal_ranges(rng, count, modes, MODE_AREA, MODE_WIDTH)
    )


def _mixed(rng: np.random.Generator, table: Table, count: int) -> Ops:
    lows, highs = inputs.uniform_ranges(rng, count, inputs.INT_DOMAIN, 0.01 * inputs.INT_DOMAIN[1])
    return inputs.mixed_ops(rng, table, lows, highs, write_share=0.3)


def budgeted_replication(column_bytes: int) -> dict[str, Any]:
    """Replication pressed against its budget: the column plus 48 KB of replicas."""
    return dict(strategy="replication", model="apm", m_min=1 * KB, m_max=4 * KB,
                storage_budget=column_bytes + 48 * KB)


ENGINE_NARROW = Spec(
    "engine_narrow", "ra", inputs.ra_column,
    lambda _: dict(strategy="segmentation", model="apm", m_min=8 * KB, m_max=32 * KB),
    instances=6, slices=7, ops=2_000, warmup=4_000, stream=_narrow,
)
ADAPT_SCAN = Spec(
    "adapt_scan", "v", inputs.int_column,
    lambda _: dict(strategy="segmentation", model="apm", m_min=3 * KB, m_max=12 * KB),
    instances=25, slices=1, ops=1_000, warmup=0, stream=_uniform(0.1),
)
REPLICA_BUDGET = Spec(
    "replica_budget", "ra", inputs.ra_column, budgeted_replication,
    instances=10, slices=1, ops=1_000, warmup=0, stream=_multimodal,
)
MIXED_READ_WRITE = Spec(
    "mixed_read_write", "v", inputs.int_column,
    lambda _: dict(strategy="segmentation", model="apm", m_min=3 * KB, m_max=12 * KB),
    instances=12, slices=1, ops=600, warmup=0, stream=_mixed,
)
SPECS = (ENGINE_NARROW, ADAPT_SCAN, REPLICA_BUDGET, MIXED_READ_WRITE)


def open_table(values: np.ndarray, column: str, adaptive: dict[str, Any]) -> Any:
    """A fresh connection with ``p(objid, <column>)`` loaded and made adaptive."""
    connection = repro.connect()
    admin = connection.admin
    admin.create_table("p", {"objid": "int64", column: values.dtype.name})
    admin.bulk_load("p", {"objid": np.arange(values.size, dtype=np.int64), column: values})
    admin.enable_adaptive("p", column, **adaptive)
    return connection


def client_calls(connection: Any, spec: Spec, tracer: Tracer | None = None) -> tuple:
    """The four calls the loop makes into the program, optionally as traced proxies."""
    statement = connection.prepare(spec.sql)
    cursor = connection.cursor()
    admin = connection.admin

    def literal(text: str) -> Any:
        return cursor.execute(text).result

    calls = (("api", statement.execute), ("api", literal),
             ("storage.insert", admin.insert), ("storage.delete", admin.delete))
    if tracer is None:
        return tuple(fn for _, fn in calls)
    return tuple(tracer.wrap(name, fn) for name, fn in calls)


def drive(calls: tuple, ops: Ops, column: str) -> Observed:
    """Send every op, one at a time; record latency and (row count, objid sum)."""
    execute, literal, insert, delete = calls
    count = len(ops)
    kinds, lows, highs = ops.kind.tolist(), ops.lows.tolist(), ops.highs.tolist()
    payload, sampled = ops.payload, ops.samples
    latencies, counts, sums = [0.0] * count, [-1] * count, [0] * count
    kept: dict[int, np.ndarray] = {}
    first_error = None
    started = perf_counter()
    for index in range(count):
        kind = kinds[index]
        begin = perf_counter()
        try:
            if kind == READ:
                result = execute((lows[index], highs[index]))
            elif kind == LITERAL:
                result = literal(payload[index])
            elif kind == INSERT:
                ids, values = payload[index]
                result = insert("p", {"objid": ids, column: values})
            else:
                result = delete("p", payload[index])
            if result is None:
                counts[index] = 0
            else:
                ids = result.columns["objid"]
                counts[index] = ids.size
                sums[index] = int(ids.sum())
                if index in sampled:
                    kept[index] = ids.copy()
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
            first_error = first_error or repr(exc)
        latencies[index] = perf_counter() - begin
    wall = perf_counter() - started
    failed = inputs.count_failures(ops, counts, sums, kept)
    return Observed(wall, np.asarray(latencies), count, failed, first_error)


def measure(spec: Spec, seed: int, seconds: float, trace: bool) -> Measurement:
    """Run one in-process workload: end-to-end pass, or the shorter traced pass."""
    out = Measurement()
    traced_pass = (6 if spec.warmup == 0 else 2) if trace else 0
    instances, count = sizes(spec.instances, spec.ops, seconds, traced_pass)
    warmup = scaled(spec.warmup, seconds, 64) if spec.warmup else 0
    out.ops = {"instances": instances, "slices_per_instance": spec.slices,
               "ops_per_slice": count, "warmup": warmup}
    tracer = Tracer() if trace else None
    probes: list[EngineProbe] = []
    traced_ops: list[Ops] = []
    for index in range(instances):
        # The traced pass gives every instance the same inputs, so that plain and
        # traced instances do identical work.
        rng = rng_for(seed, 0 if trace else index)
        table = Table(spec.make_column(rng))
        warm = spec.stream(rng, table, warmup) if warmup else None
        streams = [spec.stream(rng, table, count) for _ in range(spec.slices)]

        out.yardstick.tick()
        begin = perf_counter()
        connection = open_table(table.values, spec.column, spec.adaptive(table.values.nbytes))
        calls = client_calls(connection, spec)
        if warm is not None:
            out.untimed.append(drive(calls, warm, spec.column))
        out.setup_s.append(perf_counter() - begin)

        adaptive = connection.admin.adaptive_handle("p", spec.column).adaptive
        if trace and index >= instances // 2:
            probes.append(EngineProbe(tracer, connection.database, adaptive))
            calls = client_calls(connection, spec, tracer)
            traced_ops += streams
        for ops in streams:
            out.yardstick.tick()
            out.slices.append(drive(calls, ops, spec.column))
        out.record_io(
            [adaptive], table.values.nbytes,
            sum(ops.reads for ops in streams) + (warm.reads if warm is not None else 0),
        )
        connection.close()
        # Release this engine (its query history holds every result) before
        # the next instance is built, as a fresh process would.
        del connection, calls, adaptive
        gc.collect()
    if trace:
        layers(out, tracer, probes, traced_ops, spec)
    out.peak_rss_mb = peak_rss_mb()
    return out


# -- the traced pass ------------------------------------------------------------


class EngineProbe:
    """Timing proxies at one engine's boundaries, and its counters as tracing starts.

    ``engine`` spans wrap the ``Database.execute*`` entry points, ``core`` spans
    the adaptive column's ``select`` / ``select_many`` — installed as instance
    attributes, so nothing under ``src/`` changes and other engines are untouched.
    """

    def __init__(self, tracer: Tracer, database: Any, adaptive: Any) -> None:
        tracer.install("engine", database, "execute", "execute_prepared",
                       "execute_prepared_many", "execute_wave")
        tracer.install("core", adaptive, "select", "select_many")
        self.database, self.adaptive = database, adaptive
        self.results_from = len(database.query_history)
        self.history_from = len(adaptive.history)
        self.cache_before = database.cache_stats()

    def results(self) -> list[Any]:
        return self.database.query_history[self.results_from:]

    def stats(self) -> list[Any]:
        return self.adaptive.history.records[self.history_from:]

    def cache_deltas(self) -> dict[str, int]:
        """Plan-cache hits / misses and batch waves / batched queries since tracing started."""
        before, after = self.cache_before, self.database.cache_stats()
        return {
            counter: after[section][counter] - before[section][counter]
            for section, counter in (("total", "hits"), ("total", "misses"),
                                     ("batch", "waves"), ("batch", "batched_queries"))
        }


def layers(
    out: Measurement, tracer: Tracer, probes: list[EngineProbe], traced_ops: list[Ops], spec: Spec
) -> None:
    """Per-layer metrics of the traced instances (the second half of the traced pass)."""
    spans = tracer.layers()
    reads = sum(ops.reads for ops in traced_ops)
    metrics = out.per_layer
    metrics.update(frontend_layers(probes[0].database, traced_ops[0], spec))
    metrics.update(engine_layers(probes, spans, reads))
    for name in ("storage.insert", "storage.delete"):
        if name in spans:
            metrics[f"{name}_s_per_op"] = spans[name]["total_s"] / spans[name]["count"]
    writes = len(traced_ops[0]) - traced_ops[0].reads
    if writes:
        metrics["storage.pending_delta_rows"] = float(inputs.WRITE_BATCH * writes)
        metrics["engine.read_s_per_query_with_deltas"] = spans["api"]["total_s"] / reads
    metrics.update(trace_summary(spans, out.slices))
    out.spans = {"layers": spans, "head": tracer.head(60)}


def frontend_layers(database: Any, ops: Ops, spec: Spec) -> dict[str, float]:
    """``sql`` and ``optimizer`` timed standalone on the workload's own statements."""
    picks = np.flatnonzero(ops.kind <= LITERAL)[:FRONTEND_SAMPLE].tolist()
    texts = [
        spec.literal_sql.format(low=float(ops.lows[i]), high=float(ops.highs[i])) for i in picks
    ]
    begin = perf_counter()
    statements = [parse(text) for text in texts]
    parsed = perf_counter()
    programs = [database.compiler.compile(statement) for statement in statements]
    compiled = perf_counter()
    for program in programs:
        database.optimizer.optimize(program)
    optimized = perf_counter()
    return {
        "sql.parse_s_per_stmt": (parsed - begin) / len(texts),
        "sql.compile_s_per_stmt": (compiled - parsed) / len(texts),
        "optimizer.optimize_s_per_stmt": (optimized - compiled) / len(texts),
    }


CACHE_LEVELS = ("exact", "masked", "shape", "prepared", "batched", "snapshot", "cold")


def engine_layers(
    probes: list[EngineProbe], spans: dict[str, dict[str, float]], reads: int
) -> dict[str, float]:
    """The ``engine`` / ``core`` spans, and what the engines report about themselves.

    ``QueryResult.profile`` / ``cache_level`` from each engine's query history,
    the ``QueryStats`` records of each adaptive column, and ``cache_stats()`` —
    all since the probes were set.
    """
    results = [result for probe in probes for result in probe.results()]
    stats = [record for probe in probes for record in probe.stats()]
    levels = {level: 0 for level in CACHE_LEVELS}
    for result in results:
        levels[result.cache_level] += 1
    read_bytes = sum(s.reads_bytes for s in stats)
    item_bytes = probes[0].adaptive.total_bytes / inputs.N_ROWS
    caches = [probe.cache_deltas() for probe in probes]
    hits, misses, waves, batched = (
        sum(cache[counter] for cache in caches)
        for counter in ("hits", "misses", "waves", "batched_queries")
    )
    out = {
        "engine.self_s_per_query": spans["engine"]["self_s"] / reads,
        "core.select_s_per_query": spans["core"]["self_s"] / reads,
        "mal.opcodes_per_query":
            sum(sum(r.profile.opcode_counts.values()) for r in results) / reads,
        "engine.plan_s_per_query": sum(r.profile.plan_seconds for r in results) / reads,
        "engine.execute_s_per_query": sum(r.profile.execute_seconds for r in results) / reads,
        "engine.plan_cache_hit_ratio": hits / max(hits + misses, 1),
        "engine.batch_mean_wave": batched / waves if waves else 0.0,
        "core.selection_s_per_query": sum(s.selection_seconds for s in stats) / reads,
        "core.adaptation_s_per_query": sum(s.adaptation_seconds for s in stats) / reads,
        "core.segments_scanned_per_query": sum(s.segments_scanned for s in stats) / reads,
        "core.splits_per_query": sum(s.splits_performed for s in stats) / reads,
        "core.replicas_materialized_per_query":
            sum(s.replicas_materialized for s in stats) / reads,
        "core.segments_dropped_per_query": sum(s.segments_dropped for s in stats) / reads,
        "core.segments_final":
            sum(probe.adaptive.segment_count for probe in probes) / len(probes),  # per engine
        "core.useful_read_ratio":
            sum(s.result_count for s in stats) * item_bytes / read_bytes if read_bytes else 0.0,
    }
    for level, hit in levels.items():
        out[f"engine.cache_level_share.{level}"] = hit / max(len(results), 1)
    return out

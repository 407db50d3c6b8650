"""``routed_fleet``: two divergently adapted replicas behind ``repro.cluster.Router``.

``replica_budget``'s table and multi-modal stream; the caller routes every
query (``Router.route``, serial on the calling thread) and hands each replica
waves of 16 through ``execute_wave_on`` on that replica's worker.  Closed
loop: at most two waves per replica are outstanding — one running, one queued
— and the caller waits for the older before it submits a third.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Any

import numpy as np

from repro.cluster import Router

from e2ebench import inputs
from e2ebench.inprocess import (
    MODE_AREA, MODE_WIDTH, MODES, REPLICA_BUDGET, EngineProbe, engine_layers, frontend_layers,
    open_table,
)
from e2ebench.inputs import Ops, Table, rng_for
from e2ebench.measure import (
    Measurement, Observed, peak_rss_mb, scaled, sizes, trace_summary,
)
from e2ebench.tracing import Tracer

SPEC = REPLICA_BUDGET
REPLICAS = 2
WAVE = 16
WAVES_OUTSTANDING = 2  # per replica
INSTANCES = 5  # at --seconds 10; each a fresh fleet: build, warm up, retune, settle
SLICES = 2  # timed slices per instance
OPS = 800  # per slice
WARMUP = 512  # before retune(): the history the router clusters
SETTLE = 256  # after retune(): lets the re-assigned replicas re-adapt


def drive_routed(
    router: Router, prepared: Any, ops: Ops, route: Any = None, execute_wave_on: Any = None
) -> tuple[Observed, list[int]]:
    """Route and execute ``ops``; also returns how many queries each replica got."""
    route = route or router.route
    execute_wave_on = execute_wave_on or router.execute_wave_on
    count = len(ops)
    lows, highs, sampled = ops.lows.tolist(), ops.highs.tolist(), ops.samples
    routed_at, done_at = [0.0] * count, [0.0] * count
    counts, sums = [-1] * count, [0] * count
    kept: dict[int, np.ndarray] = {}
    errors: list[str] = []
    buckets: list[list[int]] = [[] for _ in router.replicas]
    outstanding: list[deque] = [deque() for _ in router.replicas]
    share = [0] * len(router.replicas)

    def collect(future: Any, members: list[int], finished: list[float]) -> None:
        try:
            results = future.result()
        except Exception as exc:  # noqa: BLE001 - a failed wave fails its members
            errors.append(repr(exc))
            results = [exc] * len(members)
        for index, result in zip(members, results):
            done_at[index] = finished[0] if finished else perf_counter()
            if isinstance(result, BaseException):
                errors.append(repr(result))
                continue
            ids = result.columns["objid"]
            counts[index] = ids.size
            sums[index] = int(ids.sum())
            if index in sampled:
                kept[index] = ids

    def submit(replica: int) -> None:
        members, buckets[replica] = buckets[replica], []
        queue = outstanding[replica]
        while len(queue) >= WAVES_OUTSTANDING:
            collect(*queue.popleft())
        payload = [(prepared, (lows[i], highs[i])) for i in members]
        finished: list[float] = []
        future = router.replicas[replica].submit(execute_wave_on, replica, payload)
        # Stamped on the worker the moment the wave ends, not when the caller looks.
        future.add_done_callback(lambda _: finished.append(perf_counter()))
        queue.append((future, members, finished))

    started = perf_counter()
    for index in range(count):
        routed_at[index] = perf_counter()
        replica = route(prepared, (lows[index], highs[index]))
        share[replica] += 1
        buckets[replica].append(index)
        if len(buckets[replica]) >= WAVE:
            submit(replica)
    for replica, members in enumerate(buckets):
        if members:
            submit(replica)
    for queue in outstanding:
        while queue:
            collect(*queue.popleft())
    wall = perf_counter() - started
    failed = inputs.count_failures(ops, counts, sums, kept)
    latencies = np.asarray(done_at) - np.asarray(routed_at)
    return Observed(wall, latencies, count, failed, errors[0] if errors else None), share


def _stream(rng: np.random.Generator, table: Table, modes: np.ndarray, count: int) -> Ops:
    return inputs.read_ops(
        rng, table, *inputs.multimodal_ranges(rng, count, modes, MODE_AREA, MODE_WIDTH)
    )


def _adaptives(router: Router) -> list[Any]:
    return [r.database.adaptive_handle("p", SPEC.column).adaptive for r in router.replicas]


def measure(seed: int, seconds: float, trace: bool) -> Measurement:
    """Run ``routed_fleet``: end-to-end pass, or the shorter traced pass."""
    # How well retune() happens to spread the four modes over the two replicas
    # differs from fleet to fleet by more than the machine's speed does (slices
    # of one run: 940 to 1870 ops/s), so the typical fleet is reported, not the
    # luckiest: measured over ten seeds, the median slice spreads 10 %, the
    # fast decile 24 %.
    out = Measurement(pick=50)
    instances, count = sizes(INSTANCES, OPS, seconds, 2 if trace else 0)
    warmup, settle = scaled(WARMUP, seconds, 256), scaled(SETTLE, seconds, 64)
    out.ops = {"instances": instances, "slices_per_instance": SLICES, "ops_per_slice": count,
               "warmup": warmup, "settle": settle}
    tracer = Tracer() if trace else None
    for index in range(instances):
        # The traced pass gives every instance the same inputs, so that plain and
        # traced instances do identical work.
        rng = rng_for(seed, 0 if trace else index)
        table = Table(inputs.ra_column(rng))
        modes = inputs.mode_positions(rng, inputs.RA_DOMAIN, MODES, MODE_AREA)
        warm = _stream(rng, table, modes, warmup)
        settling = _stream(rng, table, modes, settle)
        streams = [_stream(rng, table, modes, count) for _ in range(SLICES)]
        traced = trace and index >= instances // 2

        out.yardstick.tick()
        begin = perf_counter()
        connection = open_table(table.values, SPEC.column, SPEC.adaptive(table.values.nbytes))
        router = Router(connection.database, REPLICAS, n_clusters=MODES, seed=0)
        try:
            prepared = router.prepare_statement(SPEC.sql)
            out.untimed.append(drive_routed(router, prepared, warm)[0])
            (tracer.wrap("cluster.retune", router.retune) if traced else router.retune)()
            out.untimed.append(drive_routed(router, prepared, settling)[0])
            out.setup_s.append(perf_counter() - begin)
            if traced:
                _traced_slices(out, tracer, router, prepared, streams)
            else:
                for ops in streams:
                    out.yardstick.tick()
                    out.slices.append(drive_routed(router, prepared, ops)[0])
            out.record_io(
                _adaptives(router), table.values.nbytes,
                warm.reads + settling.reads + sum(s.reads for s in streams),
            )
        finally:
            router.close()
    out.peak_rss_mb = peak_rss_mb()
    return out


def _traced_slices(
    out: Measurement, tracer: Tracer, router: Router, prepared: Any, streams: list[Ops]
) -> None:
    """One instance's slices with spans around route, wave, engine and core."""
    probes = [
        EngineProbe(tracer, replica.database, adaptive)
        for replica, adaptive in zip(router.replicas, _adaptives(router))
    ]
    route = tracer.wrap("cluster.route", router.route)
    execute_wave_on = tracer.wrap("cluster.wave", router.execute_wave_on)
    shares = [0] * REPLICAS
    for ops in streams:
        out.yardstick.tick()
        observed, share = drive_routed(router, prepared, ops, route, execute_wave_on)
        out.slices.append(observed)
        shares = [total + part for total, part in zip(shares, share)]
    reads = sum(ops.reads for ops in streams)
    spans = tracer.layers()
    metrics = out.per_layer
    metrics.update(frontend_layers(router.database, streams[0], SPEC))
    metrics.update(engine_layers(probes, spans, reads))
    retune = spans.pop("cluster.retune")  # set-up, not part of the traced slices
    metrics.update({
        "cluster.route_s_per_query": spans["cluster.route"]["total_s"] / reads,
        "cluster.wave_s_per_query": spans["cluster.wave"]["total_s"] / reads,
        "cluster.replica_share_max": max(shares) / reads,
        "cluster.retune_s": retune["total_s"],
        # Replica workers overlap, so here the layers can add up to more than the wall.
        **trace_summary(spans, out.slices),
    })
    out.spans = {"layers": spans, "head": tracer.head(60)}

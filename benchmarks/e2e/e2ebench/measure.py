"""What one run of one workload records, and how it becomes named metrics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

REFERENCE_SECONDS = 10.0  # the --seconds at which the instance counts are as stated
FAST_DECILE = 90  # a timed metric is this percentile of its slices, counted toward the fast side
REFERENCE_YARDSTICK_S = 0.010  # the machine speed every reported time is normalised to


class Yardstick:
    """A fixed kernel timed beside every slice: how fast is the machine right now?

    This class of VM changes speed in regimes that last longer than a run — a
    sibling tenant comes and goes and every timing moves by ~25 % with it — so
    two runs of the same program disagree by more than any bound worth having.
    The kernel below (binary searches, slices, sums and dict stores: the mix an
    engine query is made of, none of it the program's code) moves with the
    machine in the same way; measured over twelve runs, the fast decile of a
    workload's op time spread 20 % raw and 1.5 % as a ratio to the fast decile
    of this kernel.  Reported times are therefore ``raw * REFERENCE / yardstick``:
    what the run would have read on a machine where the kernel takes 10 ms.
    """

    def __init__(self) -> None:
        self._sorted = np.sort(np.random.default_rng(0).uniform(0.0, 360.0, 100_000))
        self._ids = np.arange(self._sorted.size)
        self.samples: list[float] = []

    def tick(self) -> None:
        """Time the kernel once (about 10 ms)."""
        values, ids, seen = self._sorted, self._ids, {}
        begin = perf_counter()
        for step in range(3000):
            low = (step * 0.1) % 359.0
            hits = ids[np.searchsorted(values, low):np.searchsorted(values, low + 0.05)]
            seen[step & 63] = (hits.size, int(hits.sum()))
        self.samples.append(perf_counter() - begin)

    def seconds(self) -> float:
        """The kernel's time in the run's least disturbed moments (its fast decile)."""
        return float(np.percentile(self.samples, 100 - FAST_DECILE))


def scaled(count: int, seconds: float, floor: int) -> int:
    """A count for a ``--seconds`` budget: fixed per seed, so counts repeat exactly."""
    return max(floor, round(count * seconds / REFERENCE_SECONDS))


def sizes(instances: int, ops: int, seconds: float, trace: int = 0) -> tuple[int, int]:
    """(instances, ops per slice) for a ``--seconds`` budget.

    A shorter run has fewer instances; below three, the slices shrink instead
    (a smoke run is ``--seconds 0.1``).  The traced pass has ``trace``
    instances: the first half runs plain, the second half traced.
    """
    share = min(1.0, seconds / REFERENCE_SECONDS)
    count = max(3, round(instances * share))
    per_slice = max(40, round(ops * min(1.0, instances * share / count)))
    return (trace or count), per_slice


@dataclass
class Observed:
    """One driven stream: what the caller saw."""

    wall_s: float
    latencies: np.ndarray
    attempted: int
    failed: int
    first_error: str | None = None


@dataclass
class Measurement:
    """One run of one workload (end-to-end pass or traced pass).

    A run is a number of independent *instances* — each its own table and
    streams from a sub-seed, its own set-up — and every instance contributes
    one or more timed *slices* of the same amount of work.
    """

    setup_s: list[float] = field(default_factory=list)
    slices: list[Observed] = field(default_factory=list)
    #: IOAccountant totals and final storage, summed over the engines measured
    reads_bytes: list[float] = field(default_factory=list)
    writes_bytes: list[float] = field(default_factory=list)
    storage_x: list[float] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    ops: dict[str, int] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    spans: dict[str, Any] = field(default_factory=dict)
    #: ops driven outside the timed slices (warm-up, settle), verified all the same
    untimed: list[Observed] = field(default_factory=list)
    #: ticked before every set-up and every slice
    yardstick: Yardstick = field(default_factory=Yardstick)
    #: the percentile of the slices, toward the fast side, that a timed metric reports
    pick: int = FAST_DECILE

    def record_io(self, adaptives: list[Any], column_bytes: int, queries: int) -> None:
        """Add one engine lifetime's byte counters (a fleet's replicas are summed)."""
        self.reads_bytes.append(sum(a.accountant.total_reads_bytes for a in adaptives))
        self.writes_bytes.append(sum(a.accountant.total_writes_bytes for a in adaptives))
        self.storage_x.append(sum(a.storage_bytes for a in adaptives) / column_bytes)
        self.queries.append(queries)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.slices + self.untimed)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.slices + self.untimed)

    @property
    def first_error(self) -> str | None:
        return next((o.first_error for o in self.slices + self.untimed if o.first_error), None)

    def end_to_end(self) -> dict[str, dict[str, Any]]:
        """The end-to-end metrics, each with the samples and quartiles behind it.

        Interference only ever adds time, so a timed metric is the *fast
        decile* of its slices — the least disturbed tenth, which several slices
        rather than one have to agree on — and it is normalised by the
        :class:`Yardstick`'s fast decile (``raw`` keeps the reading as taken).
        A workload whose instances differ by more than the machine does sets
        ``pick`` to 50 and reports the median slice instead.  The slices'
        median and quartiles are kept beside the value.  Set-up time is a
        median over the instances; the byte metrics are exact counts, averaged
        over the instances; peak memory is as read.
        """
        per_query = [1.0 / q for q in self.queries]
        speed = self.yardstick.seconds() / REFERENCE_YARDSTICK_S  # > 1: a slow machine

        def timed(samples: list[float], pick: Any, rate: bool = False) -> dict[str, Any]:
            factor = speed if rate else 1.0 / speed
            out = summarize([sample * factor for sample in samples], pick)
            out["raw"] = out["value"] / factor
            return out

        def fast(towards: int) -> Any:
            return lambda samples: float(np.percentile(samples, towards))

        high, low = self.pick, 100 - self.pick
        return {
            "setup_s": timed(self.setup_s, statistics.median),
            "throughput_qps": timed(
                [o.attempted / o.wall_s for o in self.slices], fast(high), rate=True
            ),
            "latency_p50_ms": timed(
                [float(np.percentile(o.latencies, 50)) * 1e3 for o in self.slices], fast(low)
            ),
            "latency_p99_ms": timed(
                [float(np.percentile(o.latencies, 99)) * 1e3 for o in self.slices], fast(low)
            ),
            "read_bytes_per_query": summarize(
                [b * s for b, s in zip(self.reads_bytes, per_query)], statistics.fmean, exact=True
            ),
            "write_bytes_per_query": summarize(
                [b * s for b, s in zip(self.writes_bytes, per_query)], statistics.fmean, exact=True
            ),
            "storage_overhead_x": summarize(self.storage_x, statistics.fmean, exact=True),
            "peak_rss_mb": summarize([self.peak_rss_mb], max),
        }


def fast_per_op(slices: list[Observed]) -> float:
    """Wall seconds per op in the slices' fast decile."""
    return float(np.percentile([o.wall_s / o.attempted for o in slices], 100 - FAST_DECILE))


def trace_summary(spans: dict[str, dict[str, float]], slices: list[Observed]) -> dict[str, float]:
    """How well the layers' self times cover the traced wall, and what tracing cost.

    ``slices`` are a traced pass's: the first half ran plain, the second traced.
    """
    half = len(slices) // 2
    plain, traced = slices[:half], slices[half:]
    return {
        "trace.closure":
            sum(layer["self_s"] for layer in spans.values()) / sum(o.wall_s for o in traced),
        "trace.overhead_x": fast_per_op(traced) / fast_per_op(plain),
    }


def summarize(samples: list[float], pick: Any, exact: bool = False) -> dict[str, Any]:
    """The reported value (``pick`` of the samples), their quartiles, and its noise.

    ``noise`` says how far this run alone supports the value, as a share of
    it: the distance from the value to the nearer quartile when the value is
    a fast decile, the distance between the quartiles otherwise — and 0 for a
    single sample and for ``exact`` counts, which a seed reproduces to the
    byte however much they differ from instance to instance.
    """
    value = pick(samples)
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = value
    if exact:
        noise = 0.0
    elif q1 <= value <= q3:
        noise = (q3 - q1) / median
    else:
        noise = min(abs(value - q1), abs(value - q3)) / value
    return {"value": value, "noise": noise, "median": median, "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set (``VmHWM``) — this one's by default."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024.0

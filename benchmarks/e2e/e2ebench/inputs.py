"""Seeded inputs and the answer oracle — the benchmark's own copy of the data.

Nothing here imports the program under test: columns, query streams and the
expected answers are made from ``--seed`` with numpy alone, so a change to
``repro.workloads`` can never change what the benchmark asks or what it
expects back.  Range predicates are ``BETWEEN low AND high`` — inclusive at
both ends, like the SQL the workloads send.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_ROWS = 100_000  # the paper's simulation column, and every committed number's scale
INT_DOMAIN = (0.0, 1_000_000.0)  # the paper's 1 M-integer domain
RA_DOMAIN = (0.0, 360.0)  # SkyServer right ascension, degrees

READ, LITERAL, INSERT, DELETE = 0, 1, 2, 3
WRITE_BATCH = 16  # rows per insert / delete op
SAMPLE_SHARE = 0.02  # reads checked for full permutation-equality (1 in 50)


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """An independent generator per (seed, purpose) — streams never share draws."""
    return np.random.default_rng([seed, *path])


class Table:
    """One ``p(objid, v)`` table as the benchmark knows it.

    ``expected`` answers many ranges at once from a value-sorted copy (two
    binary searches and a prefix sum per query); ``scan`` is the plain mask
    scan it is cross-checked against on the sampled ops.
    """

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.objid = np.arange(values.size, dtype=np.int64)
        order = np.argsort(values, kind="stable")
        self._sorted = values[order]
        self._prefix = np.concatenate(([0], np.cumsum(self.objid[order])))

    def expected(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row count, objid sum) of every ``low <= v <= high`` range."""
        start = np.searchsorted(self._sorted, lows, side="left")
        stop = np.searchsorted(self._sorted, highs, side="right")
        return stop - start, self._prefix[stop] - self._prefix[start]

    def scan(self, low: float, high: float) -> np.ndarray:
        """Sorted objids of one range by mask scan — the reference answer."""
        return self.objid[(self.values >= low) & (self.values <= high)]


def int_column(rng: np.random.Generator, n_rows: int = N_ROWS) -> np.ndarray:
    """The paper's simulation column: uniform int32 over a 1 M domain, unsorted."""
    return rng.integers(0, int(INT_DOMAIN[1]), size=n_rows).astype(np.int32)


def ra_column(rng: np.random.Generator, n_rows: int = N_ROWS) -> np.ndarray:
    """A SkyServer-like ``ra`` column: uniform float64 degrees, unsorted."""
    return rng.uniform(*RA_DOMAIN, size=n_rows)


def uniform_ranges(
    rng: np.random.Generator, count: int, domain: tuple[float, float], width: float
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` ranges of one width, positions uniform over the domain."""
    lows = rng.uniform(domain[0], domain[1] - width, size=count)
    return lows, lows + width


def mode_positions(
    rng: np.random.Generator, domain: tuple[float, float], n_modes: int, area: float
) -> np.ndarray:
    """One query area per equal band of the domain (disjoint modes)."""
    band = (domain[1] - domain[0]) / n_modes
    return domain[0] + band * np.arange(n_modes) + rng.uniform(0.0, band - area, size=n_modes)


def multimodal_ranges(
    rng: np.random.Generator, count: int, modes: np.ndarray, area: float, width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ranges cycling mode → mode, so neighbouring queries share no locality."""
    lows = modes[np.arange(count) % modes.size] + rng.uniform(0.0, area - width, size=count)
    return lows, lows + width


@dataclass
class Ops:
    """One stream of operations with the answer every read must return."""

    kind: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    expected_count: np.ndarray
    expected_sum: np.ndarray
    #: op index -> expected objids (sorted) for the sampled full-equality check
    samples: dict[int, np.ndarray]
    #: op index -> literal SQL text (LITERAL), (objids, values) (INSERT) or oids (DELETE)
    payload: dict[int, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.kind.size)

    @property
    def reads(self) -> int:
        return int((self.kind <= LITERAL).sum())


def read_ops(
    rng: np.random.Generator,
    table: Table,
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    literal_sql: str | None = None,
    literal_share: float = 0.0,
) -> Ops:
    """A read-only stream; ``literal_share`` of it is sent as literal SQL text."""
    count = lows.size
    kind = np.full(count, READ, dtype=np.uint8)
    payload: dict[int, object] = {}
    if literal_sql is not None:
        kind[rng.random(count) < literal_share] = LITERAL
        for index in np.flatnonzero(kind == LITERAL).tolist():
            # repr() round-trips a float exactly, so text and oracle agree.
            payload[index] = literal_sql.format(low=float(lows[index]), high=float(highs[index]))
    expected_count, expected_sum = table.expected(lows, highs)
    samples = {
        index: table.scan(lows[index], highs[index])
        for index in np.flatnonzero(rng.random(count) < SAMPLE_SHARE).tolist()
    }
    return Ops(kind, lows, highs, expected_count, expected_sum, samples, payload)


def mixed_ops(
    rng: np.random.Generator,
    table: Table,
    lows: np.ndarray,
    highs: np.ndarray,
    write_share: float,
) -> Ops:
    """Reads with interleaved writes, answered from a shadow of the live rows.

    An insert appends ``WRITE_BATCH`` fresh rows whose values lie inside the
    op's range; a delete removes ``WRITE_BATCH`` bulk-loaded rows, each at
    most once.  Every read's answer is a mask scan of the shadow table as it
    stands at that point of the stream.
    """
    count = lows.size
    draw = rng.random(count)
    kind = np.where(draw < write_share / 2, INSERT, np.where(draw < write_share, DELETE, READ))
    kind = kind.astype(np.uint8)
    sampled = rng.random(count) < SAMPLE_SHARE
    victims = rng.permutation(table.values.size)
    live = np.ones(table.values.size, dtype=bool)
    extra_ids = np.empty(0, dtype=np.int64)
    extra_values = np.empty(0, dtype=table.values.dtype)
    next_id, next_victim = table.values.size, 0
    expected_count = np.zeros(count, dtype=np.int64)
    expected_sum = np.zeros(count, dtype=np.int64)
    samples: dict[int, np.ndarray] = {}
    payload: dict[int, object] = {}
    for index in range(count):
        low, high = lows[index], highs[index]
        if kind[index] == INSERT:
            values = rng.integers(
                int(np.ceil(low)), int(np.floor(high)) + 1, size=WRITE_BATCH
            ).astype(table.values.dtype)
            ids = np.arange(next_id, next_id + WRITE_BATCH, dtype=np.int64)
            next_id += WRITE_BATCH
            extra_ids = np.concatenate((extra_ids, ids))
            extra_values = np.concatenate((extra_values, values))
            payload[index] = (ids, values)
        elif kind[index] == DELETE:
            oids = victims[next_victim:next_victim + WRITE_BATCH]
            next_victim += WRITE_BATCH
            live[oids] = False
            payload[index] = oids
        else:
            base = live & (table.values >= low) & (table.values <= high)
            ids = np.concatenate(
                (table.objid[base], extra_ids[(extra_values >= low) & (extra_values <= high)])
            )
            expected_count[index] = ids.size
            expected_sum[index] = ids.sum()
            if sampled[index]:
                samples[index] = np.sort(ids)
    return Ops(kind, lows, highs, expected_count, expected_sum, samples, payload)


def count_failures(
    ops: Ops, counts: list[int], sums: list[int], kept: dict[int, np.ndarray]
) -> int:
    """Ops whose outcome differs from the oracle.

    ``counts[i]`` is the observed row count (``-1`` when the op raised or was
    refused; writes record ``0`` on success), ``sums[i]`` the observed objid
    sum, ``kept`` the full id arrays of the sampled reads.
    """
    bad = (np.asarray(counts) != ops.expected_count) | (np.asarray(sums) != ops.expected_sum)
    for index, expected in ops.samples.items():
        observed = kept.get(index)
        if observed is None or not np.array_equal(np.sort(observed), expected):
            bad[index] = True
    return int(bad.sum())

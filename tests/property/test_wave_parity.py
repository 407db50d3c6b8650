"""Property: a wave reads no more than its members would as sequential selects.

For every strategy with an index and either model, a stream of 200 waves of
16 ranges sent through ``select_many`` must read at most 1.25 times the bytes
the same ranges read as one ``select`` each on a twin column.  A wave rule
that stops reorganizing the column fails it: the repeated disjoint wave reads
one wide segment forever.  Every answer of both doors is permutation-equal to
a mask scan, and the waved column's invariants hold after every wave.

The streams run on 100 K uniform float64 values in ``[0, 360)`` under APM
8 / 32 KB or a seeded GD: the repeated 16-range disjoint wave of
``benchmarks/bench_micro_core.py``, random waves (16 uniform starts, widths
0.01–5) and skewed waves (starts ~ N(180, 20), widths 0.01–2).
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel, GaussianDice
from repro.core.strategy import available_strategies, create_strategy
from repro.util.units import KB

ROWS = 100_000
WAVES = 200
WAVE_SIZE = 16
#: The most a wave stream may read, as a multiple of its sequential selects.
READ_RATIO_BOUND = 1.25

#: ``bench_micro_core.DISJOINT_WAVE``: 16 disjoint 0.036°-wide ranges.
DISJOINT_WAVE = [(low, low + 0.036) for low in np.linspace(5.0, 355.0, 16).tolist()]

MODELS = {"apm": lambda: AdaptivePageModel(m_min=8 * KB, m_max=32 * KB),
          "gd": lambda: GaussianDice(seed=5)}

#: The strategies that keep an interval index (the others answer a wave as N selects).
INDEXED = [
    name
    for name in available_strategies()
    if create_strategy(name, np.arange(4.0), model=AdaptivePageModel()).index is not None
]


@cache
def _values() -> np.ndarray:
    values = np.random.default_rng(11).uniform(0.0, 360.0, ROWS)
    values.flags.writeable = False
    return values


def _waves(lows: np.ndarray, widths: np.ndarray) -> list[list[tuple[float, float]]]:
    return [list(zip(low, high)) for low, high in zip(lows.tolist(), (lows + widths).tolist())]


SHAPE = (WAVES, WAVE_SIZE)
STREAMS = {
    "repeated": lambda rng: [DISJOINT_WAVE] * WAVES,
    "random": lambda rng: _waves(rng.uniform(0.0, 360.0, SHAPE), rng.uniform(0.01, 5.0, SHAPE)),
    "skewed": lambda rng: _waves(rng.normal(180.0, 20.0, SHAPE), rng.uniform(0.01, 2.0, SHAPE)),
}


@cache
def _stream(name: str) -> tuple[list[list[tuple[float, float]]], dict]:
    """The stream's waves and each distinct range's mask-scan answer (sorted oids)."""
    waves = STREAMS[name](np.random.default_rng(3))
    values = _values()
    expected = {
        pair: np.flatnonzero((values >= pair[0]) & (values < pair[1]))
        for wave in waves
        for pair in wave
    }
    return waves, expected


def _assert_mask_scan(result, expected: np.ndarray) -> None:
    np.testing.assert_array_equal(np.sort(result.oids), expected)
    np.testing.assert_array_equal(np.sort(result.values), np.sort(_values()[expected]))


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("strategy", INDEXED)
def test_a_wave_stream_reads_at_most_its_sequential_selects(strategy, model, stream):
    waves, expected = _stream(stream)
    waved, serial = (
        create_strategy(strategy, _values().copy(), model=MODELS[model]()) for _ in range(2)
    )
    for wave in waves:
        results = waved.select_many(wave)
        waved.check_invariants()
        for pair, result in zip(wave, results):
            _assert_mask_scan(result, expected[pair])
            _assert_mask_scan(serial.select(*pair), expected[pair])
    serial.check_invariants()
    waved_reads = waved.accountant.total_reads_bytes
    serial_reads = serial.accountant.total_reads_bytes
    assert waved_reads <= READ_RATIO_BOUND * serial_reads, (
        f"{stream} waves read {waved_reads / 1e6:.1f} MB against "
        f"{serial_reads / 1e6:.1f} MB as sequential selects"
    )

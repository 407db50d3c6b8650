"""Synthetic columns and range-query workload generators (paper §6.1).

The simulation experiments use a column of 100 K values drawn from a domain of
1 M distinct integers, probed by 10 K range queries with selectivity 0.1 or
0.01, whose positions are either uniformly distributed over the domain or
skewed (Zipf).  The *changing* and *hotspot* generators additionally model the
access patterns of the prototype experiments (§6.2).
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import make_rng
from repro.util.stats import zipf_probabilities
from repro.util.validation import ensure_in_range, ensure_positive
from repro.workloads.query import RangeQuery, Workload

#: Parameters of the paper's simulation setup (§6.1).
PAPER_COLUMN_SIZE = 100_000
PAPER_DOMAIN_SIZE = 1_000_000
PAPER_QUERY_COUNT = 10_000


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------


def make_column(
    n_values: int = PAPER_COLUMN_SIZE,
    domain_size: int = PAPER_DOMAIN_SIZE,
    *,
    dtype: np.dtype | str = np.int32,
    seed: int | None = None,
) -> np.ndarray:
    """The paper's simulation column: ``n_values`` values from an integer domain.

    Values are drawn uniformly from ``[0, domain_size)`` and stored unsorted
    (positional order), exactly like a freshly bulk-loaded MonetDB BAT tail.
    """
    ensure_positive("n_values", n_values)
    ensure_positive("domain_size", domain_size)
    rng = make_rng(seed)
    values = rng.integers(0, domain_size, size=n_values)
    return values.astype(dtype)


# ---------------------------------------------------------------------------
# Query streams
# ---------------------------------------------------------------------------


def _query_width(domain: tuple[float, float], selectivity: float) -> float:
    low, high = domain
    width = (high - low) * selectivity
    if width <= 0:
        raise ValueError(
            f"selectivity {selectivity} over domain {domain} yields an empty query range"
        )
    return width


def _clip_query(center_low: float, width: float, domain: tuple[float, float]) -> RangeQuery:
    low_bound, high_bound = domain
    start = min(max(center_low, low_bound), high_bound - width)
    start = max(start, low_bound)
    return RangeQuery(start, min(start + width, high_bound))


def uniform_workload(
    n_queries: int,
    domain: tuple[float, float],
    selectivity: float,
    *,
    seed: int | None = None,
    name: str = "uniform",
) -> Workload:
    """Range queries whose positions are uniform over the attribute domain.

    Every query selects a contiguous range of width ``selectivity * |domain|``;
    with data values uniformly spread over the domain this yields the fraction
    of tuples the paper calls the *selectivity factor*.
    """
    ensure_positive("n_queries", n_queries)
    ensure_in_range("selectivity", selectivity, 0.0, 1.0)
    rng = make_rng(seed)
    low, high = domain
    width = _query_width(domain, selectivity)
    starts = rng.uniform(low, high - width, size=n_queries)
    queries = [_clip_query(start, width, domain) for start in starts]
    return Workload(
        name=name,
        queries=queries,
        domain=domain,
        selectivity=selectivity,
        description=f"{n_queries} uniform range queries, selectivity {selectivity}",
    )


def zipf_workload(
    n_queries: int,
    domain: tuple[float, float],
    selectivity: float,
    *,
    exponent: float = 1.0,
    n_buckets: int = 1_000,
    seed: int | None = None,
    name: str = "zipf",
) -> Workload:
    """Skewed range queries: positions follow a Zipf law over domain buckets.

    The domain is discretised into ``n_buckets`` buckets; bucket popularity is
    Zipf-distributed with the given exponent and bucket ranks are scattered
    over the domain by a seeded permutation, so the hot spots are not all at
    the domain boundary.  Within a bucket the query position is uniform.
    """
    ensure_positive("n_queries", n_queries)
    ensure_in_range("selectivity", selectivity, 0.0, 1.0)
    ensure_positive("n_buckets", n_buckets)
    rng = make_rng(seed)
    low, high = domain
    width = _query_width(domain, selectivity)
    probabilities = zipf_probabilities(n_buckets, exponent)
    bucket_positions = rng.permutation(n_buckets)
    chosen_ranks = rng.choice(n_buckets, size=n_queries, p=probabilities)
    bucket_width = (high - low) / n_buckets
    queries: list[RangeQuery] = []
    for rank in chosen_ranks:
        bucket = bucket_positions[rank]
        bucket_low = low + bucket * bucket_width
        start = bucket_low + rng.uniform(0.0, bucket_width)
        queries.append(_clip_query(start, width, domain))
    return Workload(
        name=name,
        queries=queries,
        domain=domain,
        selectivity=selectivity,
        description=(
            f"{n_queries} Zipf(exponent={exponent}) range queries, selectivity {selectivity}"
        ),
        metadata={"exponent": exponent, "n_buckets": n_buckets},
    )


def hotspot_workload(
    n_queries: int,
    domain: tuple[float, float],
    selectivity: float,
    *,
    n_hotspots: int = 2,
    hotspot_fraction: float = 0.02,
    seed: int | None = None,
    name: str = "skewed",
) -> Workload:
    """Queries confined to a few very small areas of the domain.

    Models the paper's *skewed* SkyServer workload: "200 subsequent queries
    from the log that access two very limited areas of the domain".
    """
    ensure_positive("n_queries", n_queries)
    ensure_in_range("selectivity", selectivity, 0.0, 1.0)
    ensure_positive("n_hotspots", n_hotspots)
    ensure_in_range("hotspot_fraction", hotspot_fraction, 0.0, 1.0)
    rng = make_rng(seed)
    low, high = domain
    width = _query_width(domain, selectivity)
    hotspot_width = max((high - low) * hotspot_fraction, width)
    hotspot_lows = rng.uniform(low, high - hotspot_width, size=n_hotspots)
    queries: list[RangeQuery] = []
    for _ in range(n_queries):
        hotspot_low = float(rng.choice(hotspot_lows))
        start = hotspot_low + rng.uniform(0.0, max(hotspot_width - width, 1e-12))
        queries.append(_clip_query(start, width, domain))
    return Workload(
        name=name,
        queries=queries,
        domain=domain,
        selectivity=selectivity,
        description=(
            f"{n_queries} range queries confined to {n_hotspots} hot spots of "
            f"{hotspot_fraction:.1%} of the domain each"
        ),
        metadata={"n_hotspots": n_hotspots, "hotspot_fraction": hotspot_fraction},
    )


def multimodal_workload(
    n_queries: int,
    domain: tuple[float, float],
    selectivity: float,
    *,
    n_modes: int = 4,
    mode_fraction: float = 0.04,
    interleave: bool = True,
    seed: int | None = None,
    name: str = "multimodal",
) -> Workload:
    """Interleaved queries over ``n_modes`` disjoint areas of the domain.

    The scale-out stress pattern: the domain is divided into ``n_modes``
    equal bands with one small query area per band (width ``mode_fraction``
    of the domain), and consecutive queries cycle mode→mode
    (``interleave=True``), so *no* locality survives between neighbouring
    queries.  One adaptive engine must keep every mode's fine-grained layout
    resident at once; N workload-clustered replicas each see only their own
    mode.  ``interleave=False`` emits the same queries grouped by mode
    (then it degenerates to :func:`changing_workload` with disjoint phases).

    ``seed`` is explicit, so cluster partition assignments are deterministic
    in CI.
    """
    ensure_positive("n_queries", n_queries)
    ensure_positive("n_modes", n_modes)
    ensure_in_range("selectivity", selectivity, 0.0, 1.0)
    ensure_in_range("mode_fraction", mode_fraction, 0.0, 1.0)
    rng = make_rng(seed)
    low, high = domain
    width = _query_width(domain, selectivity)
    band_width = (high - low) / n_modes
    area_width = min(max((high - low) * mode_fraction, width), band_width)
    # One query area per band, placed away from the band edges so modes
    # stay disjoint.
    mode_lows = np.array(
        [
            low + band * band_width
            + rng.uniform(0.0, max(band_width - area_width, 1e-12))
            for band in range(n_modes)
        ]
    )
    order = (
        np.arange(n_queries) % n_modes
        if interleave
        else np.repeat(np.arange(n_modes), int(np.ceil(n_queries / n_modes)))[:n_queries]
    )
    queries: list[RangeQuery] = []
    for mode in order:
        start = mode_lows[mode] + rng.uniform(0.0, max(area_width - width, 1e-12))
        queries.append(_clip_query(start, width, domain))
    return Workload(
        name=name,
        queries=queries,
        domain=domain,
        selectivity=selectivity,
        description=(
            f"{n_queries} range queries cycling over {n_modes} disjoint modes of "
            f"{mode_fraction:.1%} of the domain each"
        ),
        metadata={
            "n_modes": n_modes,
            "mode_fraction": mode_fraction,
            "interleave": interleave,
            "mode_lows": [float(value) for value in mode_lows],
        },
    )


def changing_workload(
    n_queries: int,
    domain: tuple[float, float],
    selectivity: float,
    *,
    n_phases: int = 4,
    phase_fraction: float = 0.05,
    seed: int | None = None,
    name: str = "changing",
) -> Workload:
    """A workload whose point of interest shifts between phases.

    Models the paper's *changing* SkyServer workload: "four pieces of 50
    subsequent queries with changing point of access".  Each phase confines
    its queries to a fresh, small area of the domain.
    """
    ensure_positive("n_queries", n_queries)
    ensure_positive("n_phases", n_phases)
    ensure_in_range("selectivity", selectivity, 0.0, 1.0)
    ensure_in_range("phase_fraction", phase_fraction, 0.0, 1.0)
    rng = make_rng(seed)
    low, high = domain
    width = _query_width(domain, selectivity)
    area_width = max((high - low) * phase_fraction, width)
    phase_lows = rng.uniform(low, high - area_width, size=n_phases)
    per_phase = int(np.ceil(n_queries / n_phases))
    queries: list[RangeQuery] = []
    for phase_low in phase_lows:
        for _ in range(per_phase):
            if len(queries) >= n_queries:
                break
            start = phase_low + rng.uniform(0.0, max(area_width - width, 1e-12))
            queries.append(_clip_query(start, width, domain))
    return Workload(
        name=name,
        queries=queries,
        domain=domain,
        selectivity=selectivity,
        description=(
            f"{n_queries} range queries in {n_phases} phases, each confined to "
            f"{phase_fraction:.1%} of the domain"
        ),
        metadata={"n_phases": n_phases, "phase_fraction": phase_fraction},
    )

"""A synthetic stand-in for the SkyServer (SDSS) experiment data (paper §6.2).

The paper grounds its simulation with runs against a 100 GB sample of the
SDSS-4 database, selecting on the *right ascension* (``ra``) column of the
photo-object table ``P`` with 200-query workloads filtered from a one-month
SkyServer query log.  Neither the data nor the log is publicly redistributable
at that scale, and a 100 GB disk-bound working set is out of scope for a
pure-Python reproduction, so this module builds the closest synthetic
equivalent that exercises the same code path:

* a large ``float64`` ``ra`` column covering 0–360 degrees whose density
  follows the SDSS footprint shape (most objects concentrated in wide survey
  stripes, sparse elsewhere);
* three 200-query workloads with the structure described in the paper —
  *random* (uniform coverage of the footprint), *skewed* (two very limited
  areas) and *changing* (four phases of 50 queries each with a shifting point
  of access);
* APM bounds expressed as the same fraction of the column size that the paper
  used (1 MB/5 MB/25 MB against a ~1 GB column).

The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import make_rng
from repro.util.units import GB, MB
from repro.util.validation import ensure_positive
from repro.workloads.generators import changing_workload, hotspot_workload, uniform_workload
from repro.workloads.query import Workload

#: Right ascension spans the full circle, in degrees.
RA_DOMAIN: tuple[float, float] = (0.0, 360.0)

#: The paper's ~1 GB ra column and its APM bounds; we keep the same ratios.
PAPER_COLUMN_BYTES = 1 * GB
PAPER_M_MIN = 1 * MB
PAPER_M_MAX_SMALL = 5 * MB
PAPER_M_MAX_LARGE = 25 * MB

#: Approximate centres (degrees) of dense SDSS survey stripes used to shape
#: the synthetic footprint.  The exact positions are irrelevant for the
#: reproduction; what matters is that density varies over the domain.
_STRIPE_CENTRES = (130.0, 150.0, 170.0, 185.0, 200.0, 215.0, 230.0, 250.0, 10.0, 350.0)
_STRIPE_WIDTH_DEGREES = 12.0


@dataclass
class SkyServerDataset:
    """A synthetic SkyServer-style column plus its scaled APM bounds."""

    ra: np.ndarray
    domain: tuple[float, float]
    m_min: float
    m_max_small: float
    m_max_large: float

    @property
    def column_bytes(self) -> int:
        """Size of the ra column payload in bytes."""
        return int(self.ra.size * self.ra.dtype.itemsize)


def skyserver_column(
    n_values: int = 2_000_000,
    *,
    seed: int | None = None,
    footprint_fraction: float = 0.8,
) -> np.ndarray:
    """Generate a synthetic right-ascension column.

    ``footprint_fraction`` of the objects fall inside the dense survey
    stripes (normal blobs around the stripe centres); the remainder is spread
    uniformly, mimicking sparse regions of the sky.
    """
    ensure_positive("n_values", n_values)
    rng = make_rng(seed)
    n_footprint = int(n_values * footprint_fraction)
    n_uniform = n_values - n_footprint
    centres = rng.choice(np.asarray(_STRIPE_CENTRES), size=n_footprint)
    footprint = rng.normal(loc=centres, scale=_STRIPE_WIDTH_DEGREES / 2.0)
    uniform = rng.uniform(RA_DOMAIN[0], RA_DOMAIN[1], size=n_uniform)
    ra = np.concatenate([footprint, uniform])
    ra = np.mod(ra, RA_DOMAIN[1])
    rng.shuffle(ra)
    return ra.astype(np.float64)


def skyserver_dataset(
    n_values: int = 2_000_000,
    *,
    seed: int | None = None,
) -> SkyServerDataset:
    """The synthetic column together with proportionally scaled APM bounds."""
    ra = skyserver_column(n_values, seed=seed)
    column_bytes = ra.size * ra.dtype.itemsize
    scale = column_bytes / PAPER_COLUMN_BYTES
    return SkyServerDataset(
        ra=ra,
        domain=RA_DOMAIN,
        m_min=PAPER_M_MIN * scale,
        m_max_small=PAPER_M_MAX_SMALL * scale,
        m_max_large=PAPER_M_MAX_LARGE * scale,
    )


#: Default query selectivity per workload kind.  SkyServer spatial searches
#: select narrow right-ascension stripes; the random sample uses somewhat
#: wider searches so that 200 queries cover the footprint (as in the paper,
#: where the random workload "covers the attribute domain uniformly").
_DEFAULT_SELECTIVITY = {"random": 0.01, "skewed": 0.002, "skew": 0.002, "changing": 0.005}


def skyserver_workload(
    kind: str,
    n_queries: int = 200,
    *,
    selectivity: float | None = None,
    seed: int | None = None,
) -> Workload:
    """One of the three SkyServer workloads of §6.2.

    ``kind`` is ``"random"``, ``"skewed"`` or ``"changing"``:

    * *random* — picks query positions uniformly over the whole domain, like
      the paper's one-out-of-every-300-log-queries sample;
    * *skewed* — 200 subsequent queries accessing two very limited areas;
    * *changing* — four phases of 50 queries with a changing point of access.

    ``selectivity`` defaults to a per-kind value mirroring the narrow spatial
    searches of the SkyServer log (fractions of a degree of right ascension
    for the skewed log slice, a few degrees for the random sample).
    """
    ensure_positive("n_queries", n_queries)
    key = kind.strip().lower()
    if selectivity is None:
        selectivity = _DEFAULT_SELECTIVITY.get(key, 0.005)
    if key == "random":
        return uniform_workload(
            n_queries, RA_DOMAIN, selectivity, seed=seed, name="skyserver-random"
        )
    if key in {"skew", "skewed"}:
        return hotspot_workload(
            n_queries,
            RA_DOMAIN,
            selectivity,
            n_hotspots=2,
            hotspot_fraction=0.01,
            seed=seed,
            name="skyserver-skewed",
        )
    if key == "changing":
        return changing_workload(
            n_queries,
            RA_DOMAIN,
            selectivity,
            n_phases=4,
            phase_fraction=0.03,
            seed=seed,
            name="skyserver-changing",
        )
    raise ValueError(f"unknown SkyServer workload kind {kind!r}")

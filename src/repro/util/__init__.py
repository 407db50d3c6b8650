"""Small shared utilities: units, random-number helpers, statistics, validation."""

from repro.util.units import KB, MB, GB, format_bytes
from repro.util.rng import make_rng
from repro.util.stats import moving_average, zipf_probabilities
from repro.util.validation import ensure_positive, ensure_in_range

__all__ = [
    "KB",
    "MB",
    "GB",
    "format_bytes",
    "make_rng",
    "moving_average",
    "zipf_probabilities",
    "ensure_positive",
    "ensure_in_range",
]

"""Workload generation: range-query streams and synthetic columns.

The simulation experiments (§6.1) use uniform and Zipf-distributed range
queries with fixed selectivity over an integer column; the prototype
experiments (§6.2) replay SkyServer-style *random*, *skewed* and *changing*
workloads against a large real-valued right-ascension column.  Both are
generated here.
"""

from repro.workloads.query import RangeQuery, Workload
from repro.workloads.generators import (
    changing_workload,
    hotspot_workload,
    multimodal_workload,
    make_column,
    uniform_workload,
    zipf_workload,
)
from repro.workloads.skyserver import (
    SkyServerDataset,
    skyserver_column,
    skyserver_dataset,
    skyserver_workload,
)

__all__ = [
    "RangeQuery",
    "Workload",
    "changing_workload",
    "hotspot_workload",
    "make_column",
    "multimodal_workload",
    "uniform_workload",
    "zipf_workload",
    "SkyServerDataset",
    "skyserver_column",
    "skyserver_dataset",
    "skyserver_workload",
]

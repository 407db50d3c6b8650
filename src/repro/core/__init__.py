"""Core of the reproduction: the paper's self-organizing techniques.

Public surface:

* :class:`~repro.core.ranges.ValueRange` — half-open ranges over the domain.
* :class:`~repro.core.segment.Segment` / :class:`~repro.core.segment.SelectionResult`.
* :class:`~repro.core.interval_index.IntervalIndex` — which stored pieces
  cover a range, kept by both segmentation and the replica tree, and its one
  :class:`~repro.core.interval_index.IndexSnapshot` for lock-free readers.
* Segmentation models: :class:`~repro.core.models.GaussianDice`,
  :class:`~repro.core.models.AdaptivePageModel`,
  :class:`~repro.core.models.AutoTunedAPM`.
* Strategies: :class:`~repro.core.segmentation.SegmentedColumn` (adaptive
  segmentation), :class:`~repro.core.replication.ReplicatedColumn` (adaptive
  replication) and :class:`~repro.core.baseline.UnsegmentedColumn` (the
  non-segmented baseline).
* Accounting: :class:`~repro.core.accounting.IOAccountant`,
  :class:`~repro.core.accounting.QueryStats`, :class:`~repro.core.accounting.QueryLog`.
* :func:`~repro.core.statistics.segment_statistics` — Table 2 style summaries.
"""

from repro.core.accounting import IOAccountant, PhaseTimer, QueryLog, QueryStats
from repro.core.baseline import UnsegmentedColumn
from repro.core.interval_index import IndexSnapshot, IntervalIndex
from repro.core.models import (
    AdaptivePageModel,
    AutoTunedAPM,
    GaussianDice,
    SegmentationModel,
    SplitAction,
    SplitDecision,
    model_from_name,
)
from repro.core.ranges import ValueRange, coalesce_ranges, domain_of, ranges_cover
from repro.core.replica_tree import ReplicaNode, ReplicaTree
from repro.core.replication import ReplicatedColumn
from repro.core.segment import Segment, SelectionResult
from repro.core.segmentation import SegmentedColumn
from repro.core.statistics import SegmentStatistics, segment_statistics
from repro.core.strategy import (
    AdaptiveColumnBase,
    AdaptiveColumnStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
    strategy_class,
    unregister_strategy,
)

__all__ = [
    "IOAccountant",
    "PhaseTimer",
    "QueryLog",
    "QueryStats",
    "UnsegmentedColumn",
    "IndexSnapshot",
    "IntervalIndex",
    "AdaptivePageModel",
    "AutoTunedAPM",
    "GaussianDice",
    "SegmentationModel",
    "SplitAction",
    "SplitDecision",
    "model_from_name",
    "ValueRange",
    "coalesce_ranges",
    "domain_of",
    "ranges_cover",
    "ReplicaNode",
    "ReplicaTree",
    "ReplicatedColumn",
    "Segment",
    "SelectionResult",
    "SegmentedColumn",
    "SegmentStatistics",
    "segment_statistics",
    "AdaptiveColumnBase",
    "AdaptiveColumnStrategy",
    "available_strategies",
    "create_strategy",
    "register_strategy",
    "strategy_class",
    "unregister_strategy",
]

"""Core of the reproduction: the paper's self-organizing techniques.

Public surface:

* :class:`~repro.core.ranges.ValueRange` — half-open ranges over the domain.
* :class:`~repro.core.segment.Segment` / :class:`~repro.core.segment.SelectionResult`.
* :class:`~repro.core.interval_index.IntervalIndex` — which stored pieces
  cover a range, kept by both segmentation and the replica tree.
* Segmentation models: :class:`~repro.core.models.GaussianDice` and
  :class:`~repro.core.models.AdaptivePageModel`.
* Strategies: :class:`~repro.core.segmentation.SegmentedColumn` (adaptive
  segmentation), :class:`~repro.core.replication.ReplicatedColumn` (adaptive
  replication) and :class:`~repro.core.baseline.UnsegmentedColumn` (the
  non-segmented baseline: one full scan per query, in a batch too).
* :class:`~repro.core.strategy.AdaptiveColumnBase` — the one contract every
  strategy extends — and the registry every layer builds columns through
  (:func:`~repro.core.strategy.register_strategy`,
  :func:`~repro.core.strategy.create_strategy`, ...).
* Accounting: :class:`~repro.core.accounting.IOAccountant`,
  :class:`~repro.core.accounting.QueryStats`, :class:`~repro.core.accounting.QueryLog`.
* :func:`~repro.core.statistics.segment_statistics` — Table 2 style summaries.
"""

from repro.core.accounting import IOAccountant, QueryLog, QueryStats
from repro.core.baseline import UnsegmentedColumn
from repro.core.interval_index import IntervalIndex
from repro.core.models import (
    AdaptivePageModel,
    GaussianDice,
    SegmentationModel,
    SplitAction,
    SplitDecision,
    model_from_name,
)
from repro.core.ranges import ValueRange, domain_of
from repro.core.replica_tree import ReplicaNode, ReplicaTree
from repro.core.replication import ReplicatedColumn
from repro.core.segment import Segment, SelectionResult
from repro.core.segmentation import SegmentedColumn
from repro.core.statistics import SegmentStatistics, segment_statistics
from repro.core.strategy import (
    AdaptiveColumnBase,
    available_strategies,
    create_strategy,
    register_strategy,
    strategy_class,
)

__all__ = [
    "IOAccountant",
    "QueryLog",
    "QueryStats",
    "UnsegmentedColumn",
    "IntervalIndex",
    "AdaptivePageModel",
    "GaussianDice",
    "SegmentationModel",
    "SplitAction",
    "SplitDecision",
    "model_from_name",
    "ValueRange",
    "domain_of",
    "ReplicaNode",
    "ReplicaTree",
    "ReplicatedColumn",
    "Segment",
    "SelectionResult",
    "SegmentedColumn",
    "SegmentStatistics",
    "segment_statistics",
    "AdaptiveColumnBase",
    "available_strategies",
    "create_strategy",
    "register_strategy",
    "strategy_class",
]

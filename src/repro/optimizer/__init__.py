"""The tactical optimizer layer (paper §3.1).

Self-organization integrates at MonetDB's tactical optimizer level: MAL
programs produced by the SQL compiler are transformed before execution.  This
package provides the optimizer pipeline, a couple of generic MAL→MAL rules,
the **segment optimizer** that rewrites selections over adaptive columns into
segment-aware iterator blocks, the **Bat Partition Manager (BPM)** runtime
module those blocks call into, and **delta elision** — the lowering of an
optimized plan that the executor runs in place of the Figure-1 cascade.
"""

from repro.optimizer.bpm import AdaptiveColumnHandle, BatPartitionManager
from repro.optimizer.delta_elision import lower_short
from repro.optimizer.pipeline import OptimizerPipeline
from repro.optimizer.rules import remove_dead_code, merge_duplicate_binds
from repro.optimizer.segment_optimizer import SegmentOptimizer

__all__ = [
    "AdaptiveColumnHandle",
    "BatPartitionManager",
    "OptimizerPipeline",
    "lower_short",
    "remove_dead_code",
    "merge_duplicate_binds",
    "SegmentOptimizer",
]

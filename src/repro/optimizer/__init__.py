"""The tactical optimizer layer (paper §3.1).

Self-organization integrates at MonetDB's tactical optimizer level: MAL
programs produced by the SQL compiler are transformed before execution.  This
package provides a couple of generic MAL→MAL rules, the **segment optimizer**
that rewrites selections over adaptive columns into segment-aware iterator
blocks (its ``optimize`` is the whole pass over a Figure-1 plan), and the
**Bat Partition Manager (BPM)** runtime module those blocks call into.  The
optimized Figure-1 plan is a statement's text; what the executor runs is the
compiler's lowering (:meth:`repro.sql.compiler.SQLCompiler.lower`).
"""

from repro.optimizer.bpm import AdaptiveColumnHandle, BatPartitionManager
from repro.optimizer.rules import remove_dead_code, merge_duplicate_binds
from repro.optimizer.segment_optimizer import SegmentOptimizer

__all__ = [
    "AdaptiveColumnHandle",
    "BatPartitionManager",
    "remove_dead_code",
    "merge_duplicate_binds",
    "SegmentOptimizer",
]

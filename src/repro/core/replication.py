"""Adaptive replication (paper §5, Algorithms 2-5).

Instead of reorganizing a column in place, adaptive replication keeps query
results as *replica segments* arranged in a replica tree.  Per query the
system:

1. finds the minimal covering set of materialized segments (Algorithm 3 —
   ``index.cover``, kept by the replica tree's doors),
2. analyses each covering segment's subtree with the segmentation model and
   decides which replicas to create (Algorithm 4),
3. materializes the chosen replicas (and the query result) with a single scan
   of the covering segment (Algorithm 2), and
4. drops segments that are fully replicated by their children, releasing
   storage (Algorithm 5).

Compared with adaptive segmentation the reorganization overhead is smaller —
only pieces queries expressed interest in are ever copied — at the price of
extra storage for the replicas.
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import IOAccountant, QueryStats
from repro.core.models import SegmentationModel, SplitAction
from repro.core.ranges import ValueRange
from repro.core.replica_tree import ReplicaNode, ReplicaTree
from repro.core.segment import SelectionResult, Segment
from repro.core.strategy import AdaptiveColumnBase, register_strategy


@register_strategy
class ReplicatedColumn(AdaptiveColumnBase):
    """A column augmented with a workload-driven replica tree.

    Parameters mirror :class:`repro.core.segmentation.SegmentedColumn`; the
    extra ``storage_budget`` implements the paper's future-work item of
    bounding replica storage (least-recently-used replicas are released when
    the budget is exceeded).
    """

    strategy_name = "replication"
    requires_model = True
    display_short = "Repl"
    #: Replication defines no ``_execute_batch``: Algorithm 2 interleaves
    #: cover computation, replica analysis and materialization per query, and
    #: each query's minimal cover depends on the replicas the previous one
    #: materialized — a batch kernel would have to re-derive the tree per
    #: member anyway, so batches take the sequential fallback.  For the same
    #: reason it defines no ``_absorb``: replaying stale covers would
    #: materialize replicas nobody scanned for, so absorbed snapshot reads
    #: only feed the model's result-size average and the query ledger, and
    #: the next mutating ``select`` adapts from fresh state.
    supports_snapshot_reads = True

    def __init__(
        self,
        values: np.ndarray,
        *,
        model: SegmentationModel,
        oids: np.ndarray | None = None,
        domain: tuple[float, float] | None = None,
        accountant: IOAccountant | None = None,
        time_phases: bool = True,
        storage_budget: float | None = None,
    ) -> None:
        super().__init__(values, domain=domain, accountant=accountant, time_phases=time_phases)
        self.model = model
        root_segment = Segment(self.domain, values, oids, value_width=self.value_width)
        root_segment.check_invariants()
        self.tree = ReplicaTree(root_segment)
        self.index = self.tree.index
        if storage_budget is not None and storage_budget < self.total_bytes:
            raise ValueError(
                "storage_budget must be at least the column size "
                f"({self.total_bytes:g} bytes), got {storage_budget:g}"
            )
        self.storage_budget = storage_budget
        self.peak_storage_bytes = self.total_bytes

    # -- public API --------------------------------------------------------

    @property
    def storage_bytes(self) -> float:
        """Total bytes held by materialized replica segments (Figures 8/9)."""
        return self.tree.storage_bytes

    @property
    def segment_count(self) -> int:
        """Number of nodes in the replica tree (materialized and virtual)."""
        return self.tree.node_count

    @property
    def segments(self) -> list[Segment]:
        """The segments of every replica-tree node (value order not guaranteed)."""
        return [node.segment for node in self.tree.walk()]

    @property
    def tree_depth(self) -> int:
        """Depth of the replica tree (a §6.1.3 quantity)."""
        return self.tree.depth

    def _after_frame(self, stats: QueryStats) -> None:
        super()._after_frame(stats)
        self.peak_storage_bytes = max(self.peak_storage_bytes, stats.storage_bytes)

    # -- Algorithm 2: the per-query driver -----------------------------------

    def _execute(self, query: ValueRange, stats: QueryStats) -> SelectionResult:
        query = query.intersect(self.domain)
        if query.is_empty:
            return SelectionResult.empty(self.dtype)
        cover = self.index.cover(query)
        parts: list[SelectionResult] = []
        for node in cover:
            self.accountant.record_read(node.size_bytes, node.segment)
            node.last_access = self._queries_executed

            started = self._now()
            parts.append(node.segment.select(query))
            stats.selection_seconds += self._now() - started

            started = self._now()
            to_materialize = self.analyze_replicas(query, node)
            self._materialize(node, to_materialize, stats)
            stats.adaptation_seconds += self._now() - started

        started = self._now()
        result = SelectionResult.concatenate(parts, self.dtype)
        stats.selection_seconds += self._now() - started

        if self.storage_budget is not None:
            started = self._now()
            self._enforce_budget(stats)
            stats.adaptation_seconds += self._now() - started
        return result

    # -- Algorithm 4: replica analysis ------------------------------------------

    def analyze_replicas(self, query: ValueRange, cover_node: ReplicaNode) -> list[ReplicaNode]:
        """Decide which replicas to create below ``cover_node`` for this query.

        Returns the nodes whose payload should be materialized from the
        covering segment's scan: existing virtual leaves that are materialized
        without splitting (case 0) and newly created query-side children
        (cases 1-4).
        """
        to_materialize: list[ReplicaNode] = []
        self._analyze_node(cover_node, query, to_materialize)
        return to_materialize

    def _analyze_node(
        self, node: ReplicaNode, query: ValueRange, to_materialize: list[ReplicaNode]
    ) -> None:
        if not node.is_leaf:
            for child in node.children:
                if child.vrange.overlaps(query):
                    self._analyze_node(child, query, to_materialize)
            return
        decision = self.model.decide(query, node.segment, total_bytes=self.total_bytes)
        if not decision.should_split:
            # Case 0: the query covers the leaf entirely, or splitting would
            # fragment it; a virtual leaf is materialized without splitting.
            if not node.materialized:
                to_materialize.append(node)
            return
        pieces = node.vrange.split_at(list(decision.points))
        if len(pieces) <= 1:
            if not node.materialized:
                to_materialize.append(node)
            return
        materialize_ranges = self._query_side_pieces(pieces, query, decision.action)
        children = [
            ReplicaNode(
                Segment(
                    piece,
                    value_width=self.value_width,
                    estimated_count=node.segment.estimate_count(piece),
                )
            )
            for piece in pieces
        ]
        self.tree.add_children(node, children)
        to_materialize.extend(child for child in children if child.vrange in materialize_ranges)

    @staticmethod
    def _query_side_pieces(
        pieces: list[ValueRange], query: ValueRange, action: SplitAction
    ) -> set[ValueRange]:
        """The sub-ranges that should become materialized replicas.

        For splits at the query bounds these are exactly the pieces inside the
        selection range (cases 1-3); for a single-point split (case 4) it is
        the piece holding the larger share of the selection, i.e. the smallest
        super-set of the query the model was willing to create.
        """
        if action is SplitAction.SPLIT_AT_BOUNDS:
            return {piece for piece in pieces if query.contains_range(piece)}
        best = max(pieces, key=lambda piece: piece.intersect(query).width)
        return {best}

    # -- materialization and drops -------------------------------------------------

    def _materialize(
        self, cover_node: ReplicaNode, to_materialize: list[ReplicaNode], stats: QueryStats
    ) -> None:
        """Single scan of the covering segment materializes every chosen replica.

        Replicas are zero-copy slices of the covering segment's sorted
        payload (:meth:`ReplicaTree.materialize`); the write accounting
        records the logical bytes of each replica exactly as before.
        """
        for node in to_materialize:
            piece = self.tree.materialize(node, cover_node)
            self.accountant.record_write(piece.size_bytes, piece)
            stats.replicas_materialized += 1
            node.last_access = self._queries_executed
        for node in to_materialize:
            self._propagate_drop(node.parent, stats)

    def _propagate_drop(self, node: ReplicaNode | None, stats: QueryStats) -> None:
        """Algorithm 5: drop ancestors that became fully replicated."""
        while node is not None:
            if node.is_leaf or not all(child.materialized for child in node.children):
                return
            parent = node.parent
            self.tree.splice_out(node)
            stats.segments_dropped += 1
            node = parent

    # -- storage budget (extension) ---------------------------------------------------

    def _enforce_budget(self, stats: QueryStats) -> None:
        """Release least-recently-used replicas until the budget is respected.

        Only nodes with a materialized ancestor are candidates: releasing them
        never breaks query coverage, the data is simply re-read from the
        ancestor when needed again.  Under budget this is one comparison of
        the tree's counter; over it, the cost is the materialized set (each
        member climbs its parent chain), never the whole tree.
        """
        tree = self.tree
        if tree.storage_bytes <= self.storage_budget:
            return
        candidates = [node for node in tree.materialized if tree.held_ancestor(node) is not None]
        # Nodes last touched by the same query go in pre-order: a child's range
        # is a strict sub-range of its parent's, so (low, -high) is that order.
        candidates.sort(
            key=lambda node: (node.last_access, node.vrange.low, -node.vrange.high)
        )
        for node in candidates:
            if tree.storage_bytes <= self.storage_budget:
                break
            tree.free(node)
            stats.segments_dropped += 1

    # -- integrity ----------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the replica-tree structural invariants."""
        self.tree.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicatedColumn(nodes={self.segment_count}, depth={self.tree_depth}, "
            f"storage={self.storage_bytes:g}B, model={self.model.name})"
        )


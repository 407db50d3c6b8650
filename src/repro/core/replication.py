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

Step 1 and the query's own read are the read path of
:class:`~repro.core.strategy.AdaptiveColumnBase` over the tree's leaf index;
this module is the adaptation rule, :meth:`ReplicatedColumn._adapt` (steps
2-4 on one covering segment).  A batch (``select_many``) leaves exactly the
tree N sequential selects leave: one read pass answers every member, and the
base's wave rule adapts member by member on each member's current cover.
A covering leaf the query contains is skipped, on either door: Algorithm 4
has nothing to split or materialize there.

The paper leaves a cap on replica storage as future work; the optional
``storage_budget`` is this repo's rule, not the paper's: *admit or
partition*.  Before step 3 the chosen replicas' exact bytes are probed on
the covering segment's sorted payload.  If they fit beside what the tree
holds, Algorithm 2 runs unchanged.  Otherwise the covering segment is
partitioned instead: every virtual leaf it answers is materialized, and
Algorithm 5 drops the covering segment itself.  Storage never rises on that
path — it falls by the replicas nested under the cover — and the next query
reads a piece, not the ancestor: under pressure replication turns into
segmentation locally, so nothing is ever evicted.
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import IOAccountant, QueryStats
from repro.core.models import SegmentationModel, SplitAction
from repro.core.ranges import ValueRange
from repro.core.replica_tree import ReplicaNode, ReplicaTree
from repro.core.segment import Segment
from repro.core.strategy import AdaptiveColumnBase, register_strategy


@register_strategy
class ReplicatedColumn(AdaptiveColumnBase):
    """A column augmented with a workload-driven replica tree.

    Parameters mirror :class:`repro.core.segmentation.SegmentedColumn`; the
    extra ``storage_budget`` bounds replica storage by this repo's
    admit-or-partition rule (see the module docstring — the paper leaves the
    bound as future work).  A budget lowered below the bytes held after
    construction (the ``replication_storage_budget`` knob) is met at the top
    of the next query by releasing nested replicas in value order.
    """

    strategy_name = "replication"
    requires_model = True
    display_short = "Repl"

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
        #: The budget the column was enabled with (the knob row's default).
        self.enabled_budget = storage_budget

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

    # -- the adaptation rule --------------------------------------------------

    def _before_read(self, stats: QueryStats) -> None:
        """Meet a budget lowered since the last read (adaptation never exceeds
        one again, so of N selects only the first could find it exceeded)."""
        budget = self.storage_budget
        if budget is not None and self.tree.storage_bytes > budget:
            started = self._now()
            self._meet_lowered_budget(budget, stats)
            stats.adaptation_seconds += self._now() - started

    def _adapt(self, query: ValueRange, node: ReplicaNode, stats: QueryStats) -> None:
        """Steps 2-4 on one covering node: Algorithm 4, admit or partition, Algorithm 5.

        Algorithm 4 chooses the replicas to build from ``node``'s scan: virtual
        leaves kept whole (case 0) and new query-side children (cases 1-4).
        """
        if not node.children and query.contains_range(node.vrange):
            # A held leaf inside the range: the model sees no cut point (and
            # consumes no randomness), and there is nothing to materialize.
            return
        to_materialize: list[ReplicaNode] = []
        self._analyze_node(node, query, to_materialize)
        budget = self.storage_budget
        if budget is not None and not self._fits(node, to_materialize, budget):
            to_materialize = self._answered_leaves(node)
        self._materialize(node, to_materialize, stats)

    # -- Algorithm 4: replica analysis ------------------------------------------

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
            self.accountant.record_write(piece.size_bytes)
            stats.replicas_materialized += 1
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

    # -- storage budget (this repo's rule: admit or partition) -------------------------

    def _fits(
        self, cover_node: ReplicaNode, to_materialize: list[ReplicaNode], budget: float
    ) -> bool:
        """Whether the chosen replicas fit beside what the tree holds.

        Their exact sizes come from two probes each on the covering segment's
        sorted payload — a virtual node's estimate can undershoot.
        """
        segment = cover_node.segment
        need = 0
        for node in to_materialize:
            lo, hi = segment.bounds(node.vrange)
            need += hi - lo
        return self.tree.storage_bytes + need * self.value_width <= budget

    @staticmethod
    def _answered_leaves(cover_node: ReplicaNode) -> list[ReplicaNode]:
        """The virtual leaves ``cover_node`` answers, in value order.

        Its subtree, descended without entering a node that holds data.
        Materialized together they partition what only ``cover_node`` held, so
        Algorithm 5 drops ``cover_node`` and storage falls by the replicas
        nested under it.
        """
        leaves: list[ReplicaNode] = []
        pending = cover_node.children[::-1]
        while pending:
            node = pending.pop()
            if node.materialized:
                continue
            if node.children:
                pending.extend(node.children[::-1])
            else:
                leaves.append(node)
        return leaves

    def _meet_lowered_budget(self, budget: float, stats: QueryStats) -> None:
        """Release nested replicas, in value order, until storage fits ``budget``.

        Only a budget lowered at runtime gets here.  Releasing a node with a
        held ancestor never breaks coverage, and releasing all of them leaves
        the maximal held pieces: they partition the domain and hold exactly
        the column bytes, which no budget is below.
        """
        tree = self.tree
        nested = sorted(
            (node for node in tree.materialized if tree.held_ancestor(node) is not None),
            key=lambda node: (node.vrange.low, -node.vrange.high),
        )
        for node in nested:
            if tree.storage_bytes <= budget:
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


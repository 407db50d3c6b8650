"""The replica tree used by adaptive replication (paper §5).

Segments are organised hierarchically: a segment is a child of another when
its value range is a sub-range of the parent's.  Nodes are *materialized*
(hold data) or *virtual* (range and size estimate only, used to complete the
ranges of their materialized siblings).  Dropping a fully replicated node
splices its children into its parent — or into the top-level forest when the
node was a root, which is how the original column eventually disappears once
its replicas cover the whole domain.

The tree keeps an :class:`~repro.core.interval_index.IntervalIndex` over its
leaves, each answered by its deepest materialized ancestor-or-self, so
Algorithm 3's minimal cover is ``tree.index.cover(low, high)``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.core.interval_index import IntervalIndex
from repro.core.ranges import ValueRange
from repro.core.segment import Segment


class ReplicaNode:
    """One node of the replica tree: a segment plus tree links.

    ``segment`` is swapped, never mutated: :meth:`ReplicaTree.materialize`
    installs a materialized one and :meth:`ReplicaTree.free` a virtual one.
    """

    __slots__ = ("vrange", "segment", "parent", "children")

    def __init__(self, segment: Segment, parent: "ReplicaNode | None" = None) -> None:
        self.vrange: ValueRange = segment.vrange
        self.segment = segment
        self.parent = parent
        self.children: list[ReplicaNode] = []

    # -- convenience pass-throughs ----------------------------------------

    @property
    def materialized(self) -> bool:
        return self.segment.materialized

    @property
    def size_bytes(self) -> float:
        return self.segment.size_bytes

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # -- traversal (structure is changed through the owning ReplicaTree) -----

    def depth(self) -> int:
        """Number of edges from this node down to its deepest leaf."""
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def walk(self) -> Iterator["ReplicaNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "mat" if self.materialized else "vir"
        return f"ReplicaNode({self.vrange}, {kind}, children={len(self.children)})"


class ReplicaTree:
    """The forest of replica nodes covering the attribute domain.

    The tree starts as a single materialized root holding the whole column.
    Dropped roots are replaced by their children, so the structure is a forest
    whose top-level ranges always partition the domain.

    The tree owns its mutations: :meth:`add_children`, :meth:`materialize`,
    :meth:`free` and :meth:`splice_out` are the only places a node is
    attached, given a payload or released, and they keep three counters and
    the leaf index so that no per-query quantity needs a walk —

    ``node_count``
        nodes in the forest, materialized and virtual;
    ``storage_bytes``
        bytes held by materialized nodes (the Figure 8/9 quantity).  Every
        term is ``count × value_width``, an integer-valued float, so the
        running sum is exact;
    ``materialized``
        the nodes currently holding data;
    ``index``
        the leaves in value order, each answered by its deepest
        materialized ancestor-or-self.

    :meth:`check_invariants` recounts all four from a walk.
    """

    def __init__(self, root_segment: Segment) -> None:
        self.domain = root_segment.vrange
        self.value_width = root_segment.value_width
        root = ReplicaNode(root_segment)
        self.roots: list[ReplicaNode] = [root]
        self.node_count = 1
        self.storage_bytes = 0.0
        self.materialized: set[ReplicaNode] = set()
        self._hold(root)
        self.index = IntervalIndex([root], [root])

    # -- iteration ------------------------------------------------------------

    def walk(self) -> Iterator[ReplicaNode]:
        """Pre-order traversal of every node in the forest."""
        for root in self.roots:
            yield from root.walk()

    @property
    def depth(self) -> int:
        """Depth of the deepest root subtree."""
        return max((root.depth() for root in self.roots), default=0)

    def held_ancestor(self, node: ReplicaNode) -> ReplicaNode | None:
        """``node``'s nearest proper ancestor holding data, or ``None``."""
        held = self.materialized
        ancestor = node.parent
        while ancestor is not None and ancestor not in held:
            ancestor = ancestor.parent
        return ancestor

    # -- structure maintenance ----------------------------------------------------

    def _hold(self, node: ReplicaNode) -> None:
        self.storage_bytes += node.size_bytes
        self.materialized.add(node)

    def _release(self, node: ReplicaNode) -> None:
        self.storage_bytes -= node.size_bytes
        self.materialized.remove(node)
        node.segment = Segment(
            node.vrange, value_width=self.value_width, estimated_count=node.segment.count
        )

    def add_children(self, parent: ReplicaNode, children: Sequence[ReplicaNode]) -> None:
        """Split the leaf ``parent``: attach ``children``, ordered by range, below it.

        One leaf splice in the index: a child holding data answers itself,
        a virtual one inherits what answered ``parent``.
        """
        if parent.children:
            raise ValueError(f"only a leaf splits; {parent.vrange} already has children")
        for child in children:
            if not parent.vrange.contains_range(child.vrange):
                raise ValueError(
                    f"child range {child.vrange} is not contained in parent range {parent.vrange}"
                )
        parent.children = sorted(children, key=lambda child: child.vrange.low)
        for child in parent.children:
            child.parent = parent
            if child.materialized:
                self._hold(child)
        self.node_count += len(children)
        start, stop = self.index.span(parent.vrange)
        inherited = self.index.answers[start]
        self.index.splice(
            start,
            stop,
            parent.children,
            [child if child.materialized else inherited for child in parent.children],
        )

    def materialize(self, node: ReplicaNode, source: ReplicaNode) -> Segment:
        """Give the virtual ``node`` its payload from ``source``'s segment.

        With the sorted zero-copy layout the replica is a slice *view* of the
        source's base array — creating it moves no payload bytes physically.
        The caller remains responsible for accounting the *logical* write
        (``piece.size_bytes``), which is what the paper's figures count.  The
        leaves below ``node`` that an ancestor answered are answered by
        ``node`` from now on.
        """
        piece = source.segment.extract(node.vrange)
        self.index.repoint(node.vrange, node)
        node.segment = piece
        self._hold(node)
        return piece

    def free(self, node: ReplicaNode) -> None:
        """Release ``node``'s payload; it stays in the tree as a virtual node.

        The leaves ``node`` answered are answered by its nearest materialized
        ancestor from now on.
        """
        if not node.materialized:
            return
        self._release(node)
        self.index.repoint(node.vrange, self.held_ancestor(node))

    def splice_out(self, node: ReplicaNode) -> None:
        """Drop ``node``: release its payload, hand its children to its parent.

        This is Algorithm 5's ``check4Drop`` for one node — a dropped root is
        replaced by its children in the top-level forest.  Algorithm 5 drops
        a node only once every child holds data, so no leaf answers it and the
        index is left alone.
        """
        if node.materialized:
            self._release(node)
        self.node_count -= 1
        children = list(node.children)
        parent = node.parent
        if parent is None:
            position = self.roots.index(node)
            for child in children:
                child.parent = None
            self.roots[position : position + 1] = sorted(
                children, key=lambda child: child.vrange.low
            )
        else:
            parent.children.remove(node)
            for child in children:
                child.parent = parent
                parent.children.append(child)
            parent.children.sort(key=lambda child: child.vrange.low)
        node.children = []
        node.parent = None

    # -- integrity ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify containment, partitioning, coverage, the counters and the index."""
        covered = sorted((root.vrange for root in self.roots), key=lambda r: r.low)
        position = self.domain.low
        for vrange in covered:
            if vrange.low != position:
                raise AssertionError("top-level replica ranges do not partition the domain")
            position = vrange.high
        if position != self.domain.high:
            raise AssertionError("top-level replica ranges do not cover the domain")
        for node in self.walk():
            node.segment.check_invariants()
            if not node.children:
                continue
            child_position = node.vrange.low
            for child in node.children:
                if not node.vrange.contains_range(child.vrange):
                    raise AssertionError(
                        f"child {child.vrange} escapes its parent {node.vrange}"
                    )
                if child.vrange.low != child_position:
                    raise AssertionError(
                        f"children of {node.vrange} do not partition it (gap before {child.vrange})"
                    )
                child_position = child.vrange.high
            if child_position != node.vrange.high:
                raise AssertionError(f"children of {node.vrange} do not cover it")
        self._check_counters()
        self._check_index()

    def _check_counters(self) -> None:
        """``node_count`` / ``storage_bytes`` / ``materialized`` equal a recount."""
        nodes = list(self.walk())
        held = {node for node in nodes if node.materialized}
        if self.node_count != len(nodes):
            raise AssertionError(f"node_count {self.node_count} drifted from {len(nodes)} nodes")
        if self.materialized != held:
            raise AssertionError("materialized set drifted from the nodes holding data")
        recount = sum(node.size_bytes for node in held)
        if self.storage_bytes != recount:
            raise AssertionError(
                f"storage_bytes {self.storage_bytes:g} drifted from the {recount:g} bytes held"
            )

    def _check_index(self) -> None:
        """The index lists every leaf in value order with its deepest
        materialized ancestor-or-self — and every leaf has one (query coverage)."""
        leaves: list[tuple[ReplicaNode, ReplicaNode]] = []
        pending: list[tuple[ReplicaNode, ReplicaNode | None]] = [
            (root, None) for root in reversed(self.roots)
        ]
        while pending:
            node, answer = pending.pop()
            if node.materialized:
                answer = node
            if node.children:
                pending.extend((child, answer) for child in reversed(node.children))
            elif answer is None:
                raise AssertionError(
                    f"virtual leaf {node.vrange} has no materialized ancestor; "
                    "queries hitting it could not be answered"
                )
            else:
                leaves.append((node, answer))
        index = self.index
        index.check_invariants()
        if len(leaves) != len(index) or any(
            (leaf.vrange.low, leaf.vrange.high) != (low, high) or answer is not got
            for (leaf, answer), low, high, got in zip(
                leaves, index.lows, index.highs, index.answers
            )
        ):
            raise AssertionError("interval index drifted from the tree's leaves and their answers")

"""The replica tree used by adaptive replication (paper §5).

Segments are organised hierarchically: a segment is a child of another when
its value range is a sub-range of the parent's.  Nodes are *materialized*
(hold data) or *virtual* (range and size estimate only, used to complete the
ranges of their materialized siblings).  Dropping a fully replicated node
splices its children into its parent — or into the top-level forest when the
node was a root, which is how the original column eventually disappears once
its replicas cover the whole domain.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.ranges import ValueRange
from repro.core.segment import Segment, SelectionResult, sorted_slice


class ReplicaNode:
    """One node of the replica tree: a segment plus tree links."""

    __slots__ = ("segment", "parent", "children", "last_access")

    def __init__(self, segment: Segment, parent: "ReplicaNode | None" = None) -> None:
        self.segment = segment
        self.parent = parent
        self.children: list[ReplicaNode] = []
        #: Index of the last query that scanned or materialized this node
        #: (the storage budget's LRU order); -1 until then.
        self.last_access = -1

    # -- convenience pass-throughs ----------------------------------------

    @property
    def vrange(self) -> ValueRange:
        return self.segment.vrange

    @property
    def materialized(self) -> bool:
        return self.segment.materialized

    @property
    def size_bytes(self) -> float:
        return self.segment.size_bytes

    @property
    def count(self) -> float:
        return self.segment.count

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def estimate_bytes(self, sub: ValueRange) -> float:
        return self.segment.estimate_bytes(sub)

    # -- structure maintenance ----------------------------------------------

    def materialize_from(self, source: "ReplicaNode") -> Segment:
        """Materialize this node's payload from ``source``'s segment.

        With the sorted zero-copy layout the replica is a slice *view* of the
        source's base array — creating it moves no payload bytes physically.
        The caller remains responsible for accounting the *logical* write
        (``piece.size_bytes``), which is what the paper's figures count.
        """
        piece = source.segment.extract(self.vrange)
        self.segment = piece
        return piece

    def add_child(self, node: "ReplicaNode") -> None:
        """Attach ``node`` below this node, keeping children ordered by range."""
        if not self.vrange.contains_range(node.vrange):
            raise ValueError(
                f"child range {node.vrange} is not contained in parent range {self.vrange}"
            )
        node.parent = self
        self.children.append(node)
        self.children.sort(key=lambda child: child.vrange.low)

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
    """

    def __init__(self, root_segment: Segment) -> None:
        self.domain = root_segment.vrange
        self.value_width = root_segment.value_width
        self.roots: list[ReplicaNode] = [ReplicaNode(root_segment)]

    # -- iteration ------------------------------------------------------------

    def walk(self) -> Iterator[ReplicaNode]:
        """Pre-order traversal of every node in the forest."""
        for root in self.roots:
            yield from root.walk()

    def nodes(self) -> list[ReplicaNode]:
        """All nodes of the forest as a list."""
        return list(self.walk())

    def materialized_nodes(self) -> list[ReplicaNode]:
        """All nodes currently holding data."""
        return [node for node in self.walk() if node.materialized]

    def leaves(self) -> list[ReplicaNode]:
        """All leaf nodes of the forest."""
        return [node for node in self.walk() if node.is_leaf]

    # -- metrics ----------------------------------------------------------------

    @property
    def storage_bytes(self) -> float:
        """Total bytes held by materialized nodes (the Figure 8/9 quantity)."""
        return sum(node.size_bytes for node in self.materialized_nodes())

    @property
    def node_count(self) -> int:
        """Total number of nodes (materialized and virtual)."""
        return sum(1 for _ in self.walk())

    @property
    def depth(self) -> int:
        """Depth of the deepest root subtree."""
        return max((root.depth() for root in self.roots), default=0)

    # -- structure maintenance ----------------------------------------------------

    def splice_out(self, node: ReplicaNode) -> None:
        """Remove ``node`` from the tree, re-attaching its children to its parent.

        This is the structural part of Algorithm 5 (``check4Drop``); freeing
        the node's storage is the caller's responsibility so that it can be
        accounted.
        """
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
        """Verify range containment, child partitioning and coverage invariants."""
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
        self._check_virtual_coverage()

    def _check_virtual_coverage(self) -> None:
        """Every virtual leaf must have a materialized ancestor (query coverage)."""
        for node in self.walk():
            if node.materialized or node.children:
                continue
            ancestor = node.parent
            while ancestor is not None and not ancestor.materialized:
                ancestor = ancestor.parent
            if ancestor is None:
                raise AssertionError(
                    f"virtual leaf {node.vrange} has no materialized ancestor; "
                    "queries hitting it could not be answered"
                )


def minimal_cover(roots, query: ValueRange) -> list:
    """Algorithm 3: the minimal set of materialized nodes covering ``query``.

    Works over any forest whose nodes expose ``vrange`` / ``children`` /
    ``is_leaf`` / ``materialized`` — the live :class:`ReplicaNode` tree and
    the :class:`FrozenReplicaNode` snapshot alike.  The recursion prefers the
    deepest materialized descendants and backtracks to an ancestor whenever a
    subtree would require a virtual segment (which holds no data).
    """
    cover: list = []
    for root in roots:
        if not root.vrange.overlaps(query):
            continue
        sub = _cover_node(root, query)
        if sub is None:
            raise RuntimeError(f"replica tree cannot cover query {query}: invariant violated")
        cover.extend(sub)
    return cover


def _cover_node(node, query: ValueRange) -> list | None:
    if node.is_leaf:
        return [node] if node.materialized else None
    collected: list = []
    for child in node.children:
        if not child.vrange.overlaps(query):
            continue
        sub = _cover_node(child, query)
        if sub is None:
            # Backtrack: some part of the query below is only virtual.
            return [node] if node.materialized else None
        collected.extend(sub)
    return collected


class FrozenReplicaNode:
    """An immutable copy of one replica-tree node for snapshot readers.

    Unlike segmentation segments — which are never mutated after creation —
    a live :class:`ReplicaNode`'s segment is mutated in place
    (``materialize_from`` swaps the payload in, ``free`` nulls it out), so a
    snapshot must capture the *payload array references*, not the live
    ``Segment`` objects.  The captured numpy views stay valid after a later
    ``free()`` because freeing only drops the segment's references.
    """

    __slots__ = ("vrange", "values", "oids", "children")

    def __init__(
        self,
        vrange: ValueRange,
        values: np.ndarray | None,
        oids: np.ndarray | None,
        children: tuple["FrozenReplicaNode", ...],
    ) -> None:
        self.vrange = vrange
        self.values = values
        self.oids = oids
        self.children = children

    @property
    def materialized(self) -> bool:
        return self.values is not None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def select(self, query: ValueRange) -> SelectionResult:
        """Extract the values/oids falling into ``query`` — zero-copy views.

        The same :func:`~repro.core.segment.sorted_slice` that answers
        :meth:`Segment.select`, over the captured payload references.
        """
        assert self.values is not None and self.oids is not None
        return sorted_slice(self.values, self.oids, self.vrange, query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "mat" if self.materialized else "vir"
        return f"FrozenReplicaNode({self.vrange}, {kind}, children={len(self.children)})"


class CoverSnapshot:
    """An immutable point-in-time view of a replica tree for snapshot readers.

    Captured on the owning worker (never concurrently with mutation) and
    published by reference assignment; readers run Algorithm 3's cover
    recursion and the per-node range probes entirely against frozen nodes,
    so live materialization, drops and budget evictions can proceed
    underneath without ever tearing a read.
    """

    __slots__ = ("domain", "roots", "generation", "__weakref__")

    def __init__(
        self, domain: ValueRange, roots: tuple[FrozenReplicaNode, ...], generation: int
    ) -> None:
        self.domain = domain
        self.roots = roots
        self.generation = generation

    @classmethod
    def capture(cls, tree: ReplicaTree, generation: int) -> "CoverSnapshot":
        """Freeze the forest: every node's range, payload refs and children."""

        def freeze(node: ReplicaNode) -> FrozenReplicaNode:
            segment = node.segment
            return FrozenReplicaNode(
                segment.vrange,
                segment.values,
                segment.oids,
                tuple(freeze(child) for child in node.children),
            )

        return cls(tree.domain, tuple(freeze(root) for root in tree.roots), generation)

    def cover(self, query: ValueRange) -> list[FrozenReplicaNode]:
        """Minimal covering set over the frozen forest (Algorithm 3)."""
        return minimal_cover(self.roots, query)

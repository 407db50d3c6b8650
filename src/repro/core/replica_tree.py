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

    The tree owns its mutations: :meth:`add_child`, :meth:`materialize`,
    :meth:`free` and :meth:`splice_out` are the only places a node is
    attached, given a payload or released, and they keep three counters so
    that no per-query quantity needs a walk —

    ``node_count``
        nodes in the forest, materialized and virtual;
    ``storage_bytes``
        bytes held by materialized nodes (the Figure 8/9 quantity).  Every
        term is ``count × value_width``, an integer-valued float, so the
        running sum is exact;
    ``materialized``
        the nodes currently holding data.

    :meth:`check_invariants` recounts all three from a walk.
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

    # -- iteration ------------------------------------------------------------

    def walk(self) -> Iterator[ReplicaNode]:
        """Pre-order traversal of every node in the forest."""
        for root in self.roots:
            yield from root.walk()

    @property
    def depth(self) -> int:
        """Depth of the deepest root subtree."""
        return max((root.depth() for root in self.roots), default=0)

    # -- structure maintenance ----------------------------------------------------

    def _hold(self, node: ReplicaNode) -> None:
        self.storage_bytes += node.size_bytes
        self.materialized.add(node)

    def add_child(self, parent: ReplicaNode, node: ReplicaNode) -> None:
        """Attach ``node`` below ``parent``, keeping children ordered by range."""
        if not parent.vrange.contains_range(node.vrange):
            raise ValueError(
                f"child range {node.vrange} is not contained in parent range {parent.vrange}"
            )
        node.parent = parent
        parent.children.append(node)
        parent.children.sort(key=lambda child: child.vrange.low)
        self.node_count += 1
        if node.materialized:
            self._hold(node)

    def materialize(self, node: ReplicaNode, source: ReplicaNode) -> Segment:
        """Give the virtual ``node`` its payload from ``source``'s segment.

        With the sorted zero-copy layout the replica is a slice *view* of the
        source's base array — creating it moves no payload bytes physically.
        The caller remains responsible for accounting the *logical* write
        (``piece.size_bytes``), which is what the paper's figures count.
        """
        piece = source.segment.extract(node.vrange)
        node.segment = piece
        self._hold(node)
        return piece

    def free(self, node: ReplicaNode) -> None:
        """Release ``node``'s payload; it stays in the tree as a virtual node."""
        if not node.materialized:
            return
        self.storage_bytes -= node.size_bytes
        self.materialized.remove(node)
        node.segment.free()

    def splice_out(self, node: ReplicaNode) -> None:
        """Drop ``node``: release its payload, hand its children to its parent.

        This is Algorithm 5's ``check4Drop`` for one node — a dropped root is
        replaced by its children in the top-level forest.
        """
        self.free(node)
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
        """Verify containment, partitioning, coverage and the three counters."""
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
        self._check_counters()

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
    (:meth:`ReplicaTree.materialize` swaps the payload in, ``free`` nulls it
    out), so a snapshot must capture the *payload array references*, not the
    live ``Segment`` objects.  The captured numpy views stay valid after a
    later ``free()`` because freeing only drops the segment's references.
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

    Captured on the owning worker when a reader pins it (never concurrently
    with mutation, and only if the tree changed since the last pin — see
    :meth:`ReplicatedColumn.pin_snapshot`); readers run Algorithm 3's cover
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

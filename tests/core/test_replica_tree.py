"""Unit tests for the replica tree structure."""

import numpy as np
import pytest

from repro.core.ranges import ValueRange
from repro.core.replica_tree import ReplicaNode, ReplicaTree
from repro.core.segment import Segment
from tests.support.cover_oracle import minimal_cover


def materialized(low: float, high: float, count: int = 16) -> Segment:
    values = np.linspace(low, high, count, endpoint=False)
    return Segment(ValueRange(low, high), values)


def virtual(low: float, high: float, count: float = 16) -> Segment:
    return Segment(ValueRange(low, high), value_width=8, estimated_count=count)


@pytest.fixture
def tree() -> ReplicaTree:
    return ReplicaTree(materialized(0, 100, 64))


class TestNodes:
    def test_add_children_orders_by_range(self, tree):
        root = tree.roots[0]
        upper = ReplicaNode(virtual(50, 100))
        lower = ReplicaNode(materialized(0, 50, 32))
        tree.add_children(root, [upper, lower])
        assert [child.vrange.low for child in root.children] == [0, 50]
        assert all(child.parent is root for child in root.children)
        assert tree.index.answers == [lower, root]  # one splice: held child, inherited answer

    def test_add_children_rejects_escaping_range(self, tree):
        with pytest.raises(ValueError):
            tree.add_children(tree.roots[0], [ReplicaNode(virtual(50, 150))])

    def test_add_children_splits_only_a_leaf(self, tree):
        root = tree.roots[0]
        tree.add_children(root, [ReplicaNode(virtual(0, 50)), ReplicaNode(virtual(50, 100))])
        with pytest.raises(ValueError, match="only a leaf"):
            tree.add_children(root, [ReplicaNode(virtual(0, 100))])

    def test_depth_and_walk(self, tree):
        root = tree.roots[0]
        child = ReplicaNode(materialized(0, 50, 32))
        grandchild = ReplicaNode(virtual(0, 25))
        tree.add_children(root, [child, ReplicaNode(virtual(50, 100))])
        tree.add_children(child, [grandchild, ReplicaNode(virtual(25, 50))])
        assert root.depth() == 2
        assert len(list(root.walk())) == 5
        tree.check_invariants()


class TestTree:
    def test_storage_counts_only_materialized(self, tree):
        root = tree.roots[0]
        tree.add_children(
            root, [ReplicaNode(materialized(0, 50, 32)), ReplicaNode(virtual(50, 100))]
        )
        expected = root.size_bytes + root.children[0].size_bytes
        assert tree.storage_bytes == expected

    def test_index_cover_is_algorithm_3(self, tree):
        root = tree.roots[0]
        lower = ReplicaNode(materialized(0, 50, 32))
        tree.add_children(root, [lower, ReplicaNode(virtual(50, 100))])
        cases = {
            ValueRange(10, 20): [lower],
            ValueRange(40, 60): [root],  # backtracks
            ValueRange(200, 300): [],  # no root overlaps
        }
        for query, expected in cases.items():
            assert minimal_cover(tree.roots, query) == expected
            assert tree.index.cover(query) == expected

    def test_splice_out_internal_node(self, tree):
        root = tree.roots[0]
        child = ReplicaNode(materialized(0, 50, 32))
        tree.add_children(root, [child, ReplicaNode(materialized(50, 100, 32))])
        tree.add_children(
            child, [ReplicaNode(materialized(0, 25, 16)), ReplicaNode(materialized(25, 50, 16))]
        )
        tree.splice_out(child)
        assert len(root.children) == 3
        assert all(node.parent is root for node in root.children)
        tree.check_invariants()

    def test_splice_out_root_promotes_children(self, tree):
        root = tree.roots[0]
        tree.add_children(
            root, [ReplicaNode(materialized(0, 40, 16)), ReplicaNode(materialized(40, 100, 16))]
        )
        tree.splice_out(root)
        assert len(tree.roots) == 2
        assert [r.vrange.low for r in tree.roots] == [0, 40]
        tree.check_invariants()

    def test_invariants_detect_gap_in_children(self, tree):
        root = tree.roots[0]
        tree.add_children(  # gap 40-60
            root, [ReplicaNode(materialized(0, 40, 16)), ReplicaNode(materialized(60, 100, 16))]
        )
        with pytest.raises(AssertionError):
            tree.check_invariants()

    def test_invariants_detect_uncovered_virtual_leaf(self, tree):
        root = tree.roots[0]
        tree.add_children(
            root, [ReplicaNode(materialized(0, 50, 16)), ReplicaNode(virtual(50, 100))]
        )
        tree.free(root)  # root loses its payload: virtual leaf now uncovered
        with pytest.raises(AssertionError):
            tree.check_invariants()


class TestCounters:
    def test_doors_keep_the_counters(self, tree):
        root = tree.roots[0]
        lower, upper = ReplicaNode(virtual(0, 50, 32)), ReplicaNode(materialized(50, 100, 32))
        tree.add_children(root, [lower, upper])  # an arriving materialized child is counted
        assert (tree.node_count, tree.storage_bytes) == (3, (64 + 32) * 8.0)
        assert tree.materialized == {root, upper}
        piece = tree.materialize(lower, root)
        assert piece is lower.segment and lower.materialized
        assert (tree.node_count, tree.storage_bytes) == (3, (64 + 32 + 32) * 8.0)
        released = upper.segment
        tree.free(upper)
        assert upper.segment is not released and released.materialized  # swapped, not emptied
        tree.free(upper)  # already virtual: nothing to release
        assert tree.storage_bytes == (64 + 32) * 8.0 and tree.materialized == {root, lower}
        assert tree.index.answers == [lower, root]
        tree.materialize(upper, root)
        tree.splice_out(root)  # releases the payload it still held
        assert (tree.node_count, tree.storage_bytes) == (2, (32 + 32) * 8.0)
        assert tree.materialized == {lower, upper} and not root.materialized
        assert tree.index.answers == [lower, upper]
        tree.check_invariants()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda tree: setattr(tree, "node_count", tree.node_count + 1),
            lambda tree: setattr(tree, "storage_bytes", tree.storage_bytes - 8.0),
            lambda tree: tree.materialized.discard(tree.roots[0]),
            lambda tree: setattr(  # a segment swapped behind the tree's back
                tree.roots[0].children[0], "segment", virtual(0, 50, 32)
            ),
            lambda tree: tree.index.repoint(  # an answer moved behind the tree's back
                ValueRange(0, 50), tree.roots[0]
            ),
        ],
        ids=["node_count", "storage_bytes", "materialized", "swapped-segment", "index"],
    )
    def test_invariants_detect_a_drifted_counter(self, tree, corrupt):
        root = tree.roots[0]
        tree.add_children(
            root, [ReplicaNode(materialized(0, 50, 32)), ReplicaNode(virtual(50, 100))]
        )
        tree.check_invariants()
        corrupt(tree)
        with pytest.raises(AssertionError, match="drifted"):
            tree.check_invariants()

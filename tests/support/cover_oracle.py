"""Algorithm 3 as the paper states it: the recursive minimal cover.

The product answers the cover from the replica tree's interval index (two
binary searches and a pass over the overlapped leaves' answers); this
recursion over the live tree is the reference it must equal, node for node.
"""

from __future__ import annotations

from repro.core.ranges import ValueRange


def minimal_cover(roots, query: ValueRange) -> list:
    """The minimal set of materialized nodes covering ``query``, in value order.

    Prefers the deepest materialized descendants and backtracks to an
    ancestor whenever a subtree would require a virtual segment (which holds
    no data).
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

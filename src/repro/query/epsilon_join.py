"""Distance range join: every pair within a distance threshold.

The fixed-radius cousin of the K-CPQ (the paper's introduction lists
join queries among the substrate operations; Koudas/Sevcik-style
distance joins are their metric form).  Unlike a K-CPQ the bound is
known up front, so the traversal is a single synchronized descent that
prunes node pairs with MINMINDIST greater than epsilon -- no bound
tightening is needed, which makes this the simplest consumer of the
Section 2.3 metrics and a useful cross-check for them.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.result import ClosestPair
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.geometry.vectorized import (
    pairwise_mindist,
    pairwise_point_distances,
)
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.stats import QueryStats


def distance_range_join(
    tree_p: RTree,
    tree_q: RTree,
    epsilon: float,
    metric: MinkowskiMetric = EUCLIDEAN,
    stats: QueryStats | None = None,
) -> List[ClosestPair]:
    """All pairs ``(p, q)`` with ``dist(p, q) <= epsilon``.

    Returns pairs sorted by ascending distance.  Pass ``stats`` to
    collect counters; its I/O fields are set to this call's reads
    (node reads go through the trees' buffers as they are).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if tree_p.dimension != tree_q.dimension:
        raise ValueError("trees index points of different dimensions")
    results: List[ClosestPair] = []
    if tree_p.root_id is None or tree_q.root_id is None:
        return results
    if stats is None:
        stats = QueryStats()
    settle_io = stats.count_io(tree_p.stats, tree_q.stats)

    def visit(node_p: Node, node_q: Node) -> None:
        stats.node_pairs_visited += 1
        if node_p.is_leaf and node_q.is_leaf:
            distances = pairwise_point_distances(
                node_p.points_array(), node_q.points_array(), metric
            )
            stats.distance_computations += distances.size
            rows, cols = np.nonzero(distances <= epsilon)
            for i, j in zip(rows, cols):
                entry_p = node_p.entries[int(i)]
                entry_q = node_q.entries[int(j)]
                results.append(
                    ClosestPair(
                        float(distances[i, j]),
                        entry_p.point,
                        entry_q.point,
                        entry_p.oid,
                        entry_q.oid,
                    )
                )
            return
        # Descend the non-leaf side(s); both when both are internal.
        expand_p = not node_p.is_leaf
        expand_q = not node_q.is_leaf
        if expand_p and expand_q:
            lo_p, hi_p = node_p.lo_array(), node_p.hi_array()
            lo_q, hi_q = node_q.lo_array(), node_q.hi_array()
            gaps = pairwise_mindist(lo_p, hi_p, lo_q, hi_q, metric)
            rows, cols = np.nonzero(gaps <= epsilon)
            for i, j in zip(rows, cols):
                child_p = tree_p.read_node(
                    node_p.entries[int(i)].child_id
                )
                child_q = tree_q.read_node(
                    node_q.entries[int(j)].child_id
                )
                visit(child_p, child_q)
            return
        fixed, fixed_tree = (
            (node_q, tree_q) if expand_p else (node_p, tree_p)
        )
        moving, moving_tree = (
            (node_p, tree_p) if expand_p else (node_q, tree_q)
        )
        fixed_mbr = fixed.mbr()
        lo_f = np.array([fixed_mbr.lo])
        hi_f = np.array([fixed_mbr.hi])
        gaps = pairwise_mindist(
            moving.lo_array(), moving.hi_array(), lo_f, hi_f, metric
        )[:, 0]
        for i in np.nonzero(gaps <= epsilon)[0]:
            child = moving_tree.read_node(
                moving.entries[int(i)].child_id
            )
            if expand_p:
                visit(child, fixed)
            else:
                visit(fixed, child)

    root_p = tree_p.read_node(tree_p.root_id)
    root_q = tree_q.read_node(tree_q.root_id)
    visit(root_p, root_q)
    settle_io()
    results.sort()
    return results

"""Semi-CPQ: the all-nearest-neighbour join (Section 6).

"A set of point pairs is produced, where the first point of each pair
appears only once in the result (i.e. for each point in P, the nearest
point in Q is discovered)."

The implementation batches by *leaf* of P: one best-first traversal of
Q serves all the points of a P leaf at once.  Node pairs are pruned
with MINMINDIST(leaf MBR, Q node MBR) against ``U``, the worst current
answer among the leaf's points -- a node farther than ``U`` from the
whole leaf cannot improve any of its points.  Since a leaf holds up to
M (= 21) co-located points, the Q traversal cost is amortised
several-fold compared with running an independent nearest-neighbour
query per point (measured in ``benchmarks/test_extensions_bench.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.result import ClosestPair, CPQResult
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.geometry.vectorized import (
    pairwise_mindist,
    pairwise_point_distances,
)
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.stats import QueryStats

NAME = "SEMI"


def semi_closest_pairs(
    tree_p: RTree,
    tree_q: RTree,
    metric: MinkowskiMetric = EUCLIDEAN,
    *,
    sort_result: bool = True,
    cancel_check: Optional[Callable[[], None]] = None,
    stats: Optional[QueryStats] = None,
) -> CPQResult:
    """For every point of P, its nearest point of Q, on cold trees.

    Returns one pair per P point, sorted by ascending distance when
    ``sort_result`` (the natural presentation for a Semi-CPQ report).
    ``cancel_check`` is called once per popped node of Q and aborts
    the query by raising; counters go into ``stats`` when given.
    """
    tree_p.file.reset_for_query()
    tree_q.file.reset_for_query()
    if stats is None:
        stats = QueryStats()
    settle_io = stats.count_io(tree_p.stats, tree_q.stats)
    pairs = semi_pairs(tree_p, tree_q, metric, stats, cancel_check)
    settle_io()
    if sort_result:
        pairs.sort()
    return CPQResult(pairs=pairs, stats=stats, algorithm=NAME, k=len(pairs))


def semi_pairs(
    tree_p: RTree,
    tree_q: RTree,
    metric: MinkowskiMetric,
    stats: QueryStats,
    cancel_check: Optional[Callable[[], None]] = None,
) -> List[ClosestPair]:
    """One nearest pair per P point, unsorted, read through the buffers
    as they are; traversal counters go into ``stats``."""
    if tree_p.root_id is None or tree_q.root_id is None:
        return []
    pairs: List[ClosestPair] = []
    for leaf in _iter_leaves(tree_p):
        pairs.extend(_leaf_batch_nn(tree_q, leaf, metric, stats,
                                    cancel_check))
    return pairs


def _iter_leaves(tree: RTree):
    stack = [tree.root_id]
    while stack:
        node = tree.read_node(stack.pop())
        if node.is_leaf:
            yield node
        else:
            stack.extend(e.child_id for e in node.entries)


def _leaf_batch_nn(
    tree_q: RTree,
    leaf: Node,
    metric: MinkowskiMetric,
    stats: QueryStats,
    cancel_check: Optional[Callable[[], None]],
) -> List[ClosestPair]:
    """Nearest Q point for every point of one P leaf, in one traversal."""
    points = leaf.points_array()
    count = len(leaf.entries)
    best_distance = np.full(count, np.inf)
    best_entry: List[Optional[object]] = [None] * count
    leaf_mbr = leaf.mbr()
    leaf_lo = np.array([leaf_mbr.lo], dtype=float)
    leaf_hi = np.array([leaf_mbr.hi], dtype=float)

    # Best-first over Q keyed by MINMINDIST(leaf MBR, node MBR).
    heap: List[Tuple[float, int, int]] = [(0.0, 0, tree_q.root_id)]
    seq = 0
    while heap:
        bound, __, page_id = heapq.heappop(heap)
        if cancel_check is not None:
            cancel_check()
        worst = float(best_distance.max())
        if bound > worst:
            break  # no remaining node can improve any leaf point
        node = tree_q.read_node(page_id)
        if node.is_leaf:
            distances = pairwise_point_distances(
                points, node.points_array(), metric
            )
            stats.distance_computations += distances.size
            col = np.argmin(distances, axis=1)
            row_best = distances[np.arange(count), col]
            improved = np.nonzero(row_best < best_distance)[0]
            for i in improved:
                best_distance[i] = row_best[i]
                best_entry[i] = node.entries[int(col[i])]
        else:
            bounds = pairwise_mindist(
                node.lo_array(), node.hi_array(), leaf_lo, leaf_hi,
                metric,
            )[:, 0]
            for i in np.nonzero(bounds <= worst)[0]:
                seq += 1
                heapq.heappush(
                    heap,
                    (float(bounds[i]), seq,
                     node.entries[int(i)].child_id),
                )
        if len(heap) > stats.max_queue_size:
            stats.max_queue_size = len(heap)

    pairs = []
    for i, entry in enumerate(leaf.entries):
        q_entry = best_entry[i]
        assert q_entry is not None  # tree_q is non-empty
        pairs.append(
            ClosestPair(
                float(best_distance[i]), entry.point, q_entry.point,
                entry.oid, q_entry.oid,
            )
        )
    return pairs

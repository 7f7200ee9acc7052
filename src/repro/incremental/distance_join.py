"""The incremental distance join (Hjaltason & Samet, SIGMOD 1998).

:func:`incremental_distance_join` yields closest pairs one at a time in
ascending distance order -- the defining property of the incremental
approach.  :func:`k_distance_join` materialises the first K pairs and
returns a :class:`~repro.core.result.CPQResult` with the same cost
statistics as the paper's algorithms, enabling the Figure 10
comparison.

Key differences from the paper's HEAP algorithm (Section 3.9):

* the queue holds items of all four types (node/node, node/object,
  object/node, object/object), so it grows much larger -- visible in
  ``stats.max_queue_size``;
* results stream out in order instead of being computed together;
* traversal follows one of three policies (BAS / EVN / SML) instead of
  always-simultaneous.

When ``k_bound`` is given, the algorithm applies Hjaltason & Samet's
K-bounding modification: a max-heap of the best K object/object
distances seen so far provides a threshold; queue insertions beyond it
are skipped.  After this the join is "incremental up to K, only".
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.kheap import KHeap
from repro.core.result import ClosestPair, CPQResult
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.incremental.pairs import (
    NodeRef,
    Side,
    is_object,
    pair_distance,
    side_level,
)
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.paged_file import split_buffer
from repro.storage.stats import QueryStats

#: Traversal policies: which side(s) of a node/node pair to expand.
BASIC = "bas"
EVEN = "evn"
SIMULTANEOUS = "sml"
POLICIES = (BASIC, EVEN, SIMULTANEOUS)

#: Distance-tie policies.
DEPTH_FIRST = "depth"
BREADTH_FIRST = "breadth"
TIE_POLICIES = (DEPTH_FIRST, BREADTH_FIRST)


def incremental_distance_join(
    tree_p: RTree,
    tree_q: RTree,
    policy: str = SIMULTANEOUS,
    tie_policy: str = DEPTH_FIRST,
    metric: MinkowskiMetric = EUCLIDEAN,
    k_bound: Optional[int] = None,
    stats: Optional[QueryStats] = None,
    cancel_check: Optional[Callable[[], None]] = None,
) -> Iterator[ClosestPair]:
    """Yield closest pairs of (P, Q) in ascending distance order.

    The generator is lazy: consuming n pairs performs only the work
    needed for the n closest.  Pass ``stats`` to collect cost counters
    while iterating.  ``cancel_check`` is called once per popped queue
    item and aborts the join by raising.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {POLICIES}"
        )
    if tie_policy not in TIE_POLICIES:
        raise ValueError(
            f"unknown tie policy {tie_policy!r}; expected one of "
            f"{TIE_POLICIES}"
        )
    if k_bound is not None and k_bound < 1:
        raise ValueError("k_bound must be >= 1 when given")
    if stats is None:
        stats = QueryStats()
    if tree_p.root_id is None or tree_q.root_id is None:
        return

    # I/O is this join's delta from generator start; the trees' own
    # counters are never touched (they may serve concurrent queries).
    settle_io = stats.count_io(tree_p.stats, tree_q.stats)
    tie_sign = 1 if tie_policy == DEPTH_FIRST else -1
    bound_heap = KHeap(k_bound) if k_bound is not None else None
    # Queue items: (distance, tie value, sequence, side_p, side_q).
    queue: List[Tuple[float, int, int, Side, Side]] = []
    seq = 0

    def threshold() -> float:
        return bound_heap.threshold if bound_heap is not None else math.inf

    def push(side_p: Side, side_q: Side) -> None:
        nonlocal seq
        distance = pair_distance(side_p, side_q, metric)
        if is_object(side_p) and is_object(side_q):
            stats.distance_computations += 1
            if bound_heap is not None:
                # Feed the K-bound with every candidate object pair; do
                # not enqueue pairs that can no longer make the top K.
                if distance > threshold():
                    return
                bound_heap.offer(
                    ClosestPair(
                        distance, side_p.point, side_q.point,
                        side_p.oid, side_q.oid,
                    )
                )
        elif distance > threshold():
            return
        # Depth-first prefers deeper (smaller-level) items among equal
        # distances; breadth-first the opposite.
        tie = tie_sign * (side_level(side_p) + side_level(side_q))
        seq += 1
        heapq.heappush(queue, (distance, tie, seq, side_p, side_q))
        stats.queue_inserts += 1
        if len(queue) > stats.max_queue_size:
            stats.max_queue_size = len(queue)

    def children(tree: RTree, ref: NodeRef) -> List[Side]:
        node: Node = tree.read_node(ref.page_id)
        if node.is_leaf:
            return list(node.entries)
        return [
            NodeRef(e.child_id, e.mbr, node.level - 1) for e in node.entries
        ]

    def expand(side_p: Side, side_q: Side) -> None:
        """Replace a popped non-final pair by its refinement."""
        stats.node_pairs_visited += 1
        p_is_node = not is_object(side_p)
        q_is_node = not is_object(side_q)
        if p_is_node and q_is_node:
            if policy == SIMULTANEOUS:
                kids_p = children(tree_p, side_p)
                kids_q = children(tree_q, side_q)
                for cp in kids_p:
                    for cq in kids_q:
                        push(cp, cq)
                return
            if policy == EVEN:
                # Expand the node at the shallower depth (higher level).
                expand_p = side_p.level >= side_q.level
            else:  # BASIC: priority to tree P, arbitrarily.
                expand_p = True
            if expand_p:
                for cp in children(tree_p, side_p):
                    push(cp, side_q)
            else:
                for cq in children(tree_q, side_q):
                    push(side_p, cq)
            return
        if p_is_node:
            for cp in children(tree_p, side_p):
                push(cp, side_q)
        else:
            for cq in children(tree_q, side_q):
                push(side_p, cq)

    root_p = tree_p.read_node(tree_p.root_id)
    root_q = tree_q.read_node(tree_q.root_id)
    push(
        NodeRef(root_p.page_id, root_p.mbr(), root_p.level),
        NodeRef(root_q.page_id, root_q.mbr(), root_q.level),
    )

    reported = 0
    while queue:
        distance, __, __, side_p, side_q = heapq.heappop(queue)
        if cancel_check is not None:
            cancel_check()
        if distance > threshold():
            break
        if is_object(side_p) and is_object(side_q):
            settle_io()
            yield ClosestPair(
                distance, side_p.point, side_q.point,
                side_p.oid, side_q.oid,
            )
            reported += 1
            if k_bound is not None and reported >= k_bound:
                return
            continue
        expand(side_p, side_q)
    settle_io()


def k_distance_join(
    tree_p: RTree,
    tree_q: RTree,
    k: int,
    policy: str = SIMULTANEOUS,
    tie_policy: str = DEPTH_FIRST,
    metric: MinkowskiMetric = EUCLIDEAN,
    *,
    buffer_pages: Optional[int] = None,
) -> CPQResult:
    """Materialise the K closest pairs via the incremental join.

    Mirrors :func:`repro.core.api.k_closest_pairs` (buffer split, cold
    start) so the two families are directly comparable (Figure 10).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if buffer_pages is not None:
        split_buffer(tree_p.file, tree_q.file, buffer_pages)
    tree_p.file.reset_for_query()
    tree_q.file.reset_for_query()
    stats = QueryStats()
    pairs = list(
        incremental_distance_join(
            tree_p,
            tree_q,
            policy=policy,
            tie_policy=tie_policy,
            metric=metric,
            k_bound=k,
            stats=stats,
        )
    )
    return CPQResult(pairs=pairs, stats=stats, algorithm=policy.upper(), k=k)

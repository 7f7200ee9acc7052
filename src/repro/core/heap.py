"""The Heap algorithm, HEAP (Section 3.5).

The only non-recursive algorithm: a global main-memory min-heap keyed
by MINMINDIST replaces the recursion stack.  Processing a node pair
(step CP2) tightens ``T`` from MINMAXDIST, then inserts the surviving
child *node pairs* into the heap; the main loop (CP4/CP5) repeatedly
pops the pair with the smallest MINMINDIST and stops as soon as that
value exceeds ``T`` -- every remaining pair is then prunable.

Visiting a leaf pair (step CP3) pushes nothing, so the leaf pairs on
top of the heap behind a popped one are its next pops: they are popped
together, their point distances computed as one
:class:`~repro.core.engine.LeafRun`, and then visited one by one as
the loop would have popped them.

Unlike the incremental algorithms of Hjaltason & Samet, the heap holds
node/node items only (never node/object or object/object), which keeps
it small enough to live entirely in main memory (Section 3.9); the
``max_queue_size`` statistic lets experiments verify that claim.

Ties of MINMINDIST are resolved by a tie-break chain (Section 3.6,
default T1) encoded directly in the heap key.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.core.engine import (
    LEAF_RUN_CAP,
    CPQContext,
    CPQOptions,
    LeafRun,
    generate_candidates,
    scan_leaf_pair,
    traced_traversal,
)
from repro.core.height import FIX_AT_ROOT
from repro.core.result import CPQResult
from repro.core.ties import DEFAULT_TIE_BREAK, TieBreak
from repro.rtree.node import Node

NAME = "HEAP"

#: A queue entry: (MINMINDIST, tie-key tuple, sequence, page_p, page_q).
Item = Tuple[float, Tuple[float, ...], int, int, int]


def heap_algorithm(
    ctx: CPQContext,
    height_strategy: str = FIX_AT_ROOT,
    tie_break: Optional[TieBreak] = None,
    maxmax_pruning: bool = True,
    clip_mindist: bool = False,
) -> CPQResult:
    """Run the Heap algorithm on a prepared query context.

    ``maxmax_pruning`` toggles the Section 3.8 MAXMAXDIST accumulation
    bound for K > 1 (off = the simple K-heap-threshold modification).
    ``clip_mindist`` keys the heap by MINMINDIST of range-clipped MBRs
    instead of raw ones (the CLIPPED algorithm; requires a range on the
    context to differ from plain HEAP).
    """
    options = CPQOptions(
        prune=True,
        update_bound=True,
        sort=False,
        height_strategy=height_strategy,
        maxmax_k_pruning=maxmax_pruning,
        clip_mindist=clip_mindist,
    )
    ties = tie_break if tie_break is not None else DEFAULT_TIE_BREAK
    root_p = ctx.root_p
    root_q = ctx.root_q
    if root_p is None or root_q is None:
        return ctx.result(NAME)

    heap: List[Item] = []
    seq = 0
    pops = 0

    def process_pair(node_p: Node, node_q: Node,
                     run: Optional[LeafRun] = None, index: int = 0) -> None:
        """Step CP2/CP3 for one visited pair."""
        nonlocal seq
        ctx.check_cancelled()
        ctx.stats.node_pairs_visited += 1
        if node_p.is_leaf and node_q.is_leaf:
            if run is None:
                scan_leaf_pair(ctx, node_p, node_q)
            else:
                run.scan(ctx, index, node_p, node_q)
            return
        # Every candidate already passed MINMINDIST <= T (pruned in
        # generate_candidates, and T has not moved since).
        candidates = generate_candidates(ctx, node_p, node_q, options)
        pages_p, pages_q = candidates.child_pages()
        for item in zip(candidates.minmin.tolist(),
                        candidates.tie_keys(ctx, ties),
                        range(seq + 1, seq + 1 + len(candidates)),
                        pages_p, pages_q):
            heapq.heappush(heap, item)
        seq += len(candidates)
        ctx.stats.queue_inserts += len(candidates)
        if len(heap) > ctx.stats.max_queue_size:
            ctx.stats.max_queue_size = len(heap)

    def process_leaf_run(leaf_p: Node, leaf_q: Node) -> bool:
        """Visit a popped leaf pair and the leaf pairs behind it on the
        heap, as the serial loop would pop them; False once CP5 ends
        the query inside the run."""
        nonlocal pops
        ahead = _pop_leaf_pairs(ctx, heap)
        run = LeafRun.of(ctx, [(leaf_p, leaf_q)]
                         + [pair for __, pair in ahead])
        process_pair(leaf_p, leaf_q, run, 0)
        for index, (item, __) in enumerate(ahead, 1):
            pops += 1
            if item[0] > ctx.t:  # CP5: the rest go back unvisited
                for unvisited, __ in ahead[index:]:
                    heapq.heappush(heap, unvisited)
                return False
            process_pair(ctx.tree_p.read_node(item[3]),
                         ctx.tree_q.read_node(item[4]), run, index)
        return True

    with traced_traversal(ctx, NAME, tie_break=repr(ties),
                          height_strategy=height_strategy):
        tracer = ctx.tracer
        with tracer.span("heap") if tracer.enabled else _noop() as heap_span:
            process_pair(root_p, root_q)  # CP1/CP2 on the root pair
            while heap:  # CP4
                minmin, __, __, page_p, page_q = heapq.heappop(heap)
                pops += 1
                if minmin > ctx.t:  # CP5: everything left is prunable
                    break
                node_p = ctx.tree_p.read_node(page_p)
                node_q = ctx.tree_q.read_node(page_q)
                if not (node_p.is_leaf and node_q.is_leaf):
                    process_pair(node_p, node_q)
                elif not process_leaf_run(node_p, node_q):
                    break
            if tracer.enabled:
                # High-water mark and final size of the global queue
                # (Section 3.9's main-memory-residency argument).
                heap_span.annotate(
                    inserts=ctx.stats.queue_inserts,
                    pops=pops,
                    max_size=ctx.stats.max_queue_size,
                    leftover=len(heap),
                )
    return ctx.result(NAME)


def _pop_leaf_pairs(
    ctx: CPQContext, heap: List[Item]
) -> List[Tuple[Item, Tuple[Node, Node]]]:
    """Pop the leaf pairs now on top of the heap, with their nodes.

    Visiting a leaf pair pushes nothing, so these are the serial loop's
    next pops.  Stops at an entry above T, at a pair that is not a
    leaf pair or whose nodes are not decoded yet (:meth:`RTree.cached_node`
    never reads a page), and at :data:`LEAF_RUN_CAP` pairs per run.
    """
    ahead: List[Tuple[Item, Tuple[Node, Node]]] = []
    t = ctx.t
    cached_p, cached_q = ctx.tree_p.cached_node, ctx.tree_q.cached_node
    while heap and len(ahead) < LEAF_RUN_CAP - 1 and heap[0][0] <= t:
        leaf_p = cached_p(heap[0][3])
        leaf_q = cached_q(heap[0][4])
        if (leaf_p is None or leaf_q is None
                or not (leaf_p.is_leaf and leaf_q.is_leaf)):
            break
        ahead.append((heapq.heappop(heap), (leaf_p, leaf_q)))
    return ahead


@contextmanager
def _noop():
    yield None

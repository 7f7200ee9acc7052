"""Multi-way closest tuples (paper Section 6, future work (a)).

"The study of multi-way CPQs where tuples of objects are expected to
be the answers, extending related work in multi-way spatial joins."

Given m >= 2 point sets, each in its own R-tree, find the K tuples
``(p_1, ..., p_m)`` minimising an aggregate distance over a query
graph, in the style of Mamoulis & Papadias / Papadias, Mamoulis &
Theodoridis (multi-way spatial joins):

* ``"chain"`` -- sum of distances over consecutive pairs
  ``d(p_1,p_2) + d(p_2,p_3) + ...`` (e.g. site -> resort -> airport);
* ``"clique"`` -- sum over all pairs (a compactness objective).

The algorithm is a best-first search over *tuples of nodes* in the
spirit of the paper's HEAP algorithm: a global min-heap keyed by a
lower bound (the edge-wise sum of MINMINDIST values, which lower
bounds the aggregate of every point tuple in the sub-cube), a K-heap
of the best tuples found, and simultaneous expansion of all non-leaf
members of a popped tuple.  Bounds for all child combinations are
computed as one broadcast NumPy tensor.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.geometry.vectorized import (
    pairwise_mindist,
    pairwise_point_distances,
)
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.stats import QueryStats

GRAPHS = ("chain", "clique")


@dataclass(frozen=True, order=True)
class ClosestTuple:
    """One result tuple with its aggregate distance."""

    distance: float
    points: Tuple[Tuple[float, ...], ...]
    oids: Tuple[int, ...] = ()


@dataclass
class MultiwayResult:
    """Outcome of a multi-way closest-tuples query."""

    tuples: List[ClosestTuple] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    graph: str = "chain"
    k: int = 1

    def distances(self) -> List[float]:
        return [t.distance for t in self.tuples]


def _edges(m: int, graph: str) -> List[Tuple[int, int]]:
    if graph == "chain":
        return [(i, i + 1) for i in range(m - 1)]
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def _expansion_side(node: Node):
    """Candidate rectangles and target pages for one tuple member.

    Internal nodes expand into their children; a leaf member of a
    mixed-level tuple stays fixed as a single pseudo-candidate (its
    own MBR and page), the fix-at-leaves treatment generalised to
    tuples.
    """
    if node.is_leaf:
        mbr = node.mbr()
        lo = np.array([mbr.lo], dtype=float)
        hi = np.array([mbr.hi], dtype=float)
        return lo, hi, [node.page_id]
    return (
        node.lo_array(),
        node.hi_array(),
        [entry.child_id for entry in node.entries],
    )


def _bound_tensor(sides, edges, metric) -> np.ndarray:
    """Lower-bound aggregate for every candidate combination.

    ``sides`` holds per-member ``(lo, hi, pages)`` triples from
    :func:`_expansion_side`.  Entry ``[i_1, ..., i_m]`` of the result
    is the sum over graph edges of MINMINDIST between the chosen
    rectangles -- a lower bound on the aggregate distance of any point
    tuple drawn from them.
    """
    m = len(sides)
    sizes = tuple(len(side[2]) for side in sides)
    total = np.zeros(sizes)
    for a, b in edges:
        matrix = pairwise_mindist(
            sides[a][0], sides[a][1], sides[b][0], sides[b][1], metric
        )
        shape = [1] * m
        shape[a] = sizes[a]
        shape[b] = sizes[b]
        total = total + matrix.reshape(shape)
    return total


def _distance_tensor(leaves: Sequence[Node], edges, metric) -> np.ndarray:
    """Exact aggregate distance for every point combination."""
    m = len(leaves)
    sizes = tuple(len(n.entries) for n in leaves)
    total = np.zeros(sizes)
    for a, b in edges:
        matrix = pairwise_point_distances(
            leaves[a].points_array(), leaves[b].points_array(), metric
        )
        shape = [1] * m
        shape[a] = sizes[a]
        shape[b] = sizes[b]
        total = total + matrix.reshape(shape)
    return total


def multiway_closest_tuples(
    trees: Sequence[RTree],
    k: int = 1,
    graph: str = "chain",
    metric: MinkowskiMetric = EUCLIDEAN,
) -> MultiwayResult:
    """Find the K tuples with the smallest aggregate distance.

    Cold-starts every tree; ``result.stats`` counts this call's reads.

    Parameters
    ----------
    trees:
        One R-tree per data set (at least two, same dimension).
    k:
        Number of result tuples.
    graph:
        ``"chain"`` or ``"clique"`` aggregation (see module docs).
    """
    if len(trees) < 2:
        raise ValueError("multi-way CPQ needs at least two trees")
    if graph not in GRAPHS:
        raise ValueError(f"unknown graph {graph!r}; expected one of {GRAPHS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    dimension = trees[0].dimension
    for tree in trees[1:]:
        if tree.dimension != dimension:
            raise ValueError("all trees must index the same dimension")
    for tree in trees:
        tree.file.reset_for_query()
    stats = QueryStats()
    settle_io = stats.count_io(*(tree.stats for tree in trees))
    result = MultiwayResult(stats=stats, graph=graph, k=k)
    if any(tree.root_id is None for tree in trees):
        return result

    m = len(trees)
    edges = _edges(m, graph)

    # K-heap of best tuples: max-heap via negated distances.
    best: List[Tuple[float, int, ClosestTuple]] = []
    seq_best = 0

    def threshold() -> float:
        if len(best) < k:
            return math.inf
        return -best[0][0]

    def offer(candidate: ClosestTuple) -> None:
        nonlocal seq_best
        seq_best += 1
        item = (-candidate.distance, seq_best, candidate)
        if len(best) < k:
            heapq.heappush(best, item)
        elif candidate.distance < threshold():
            heapq.heapreplace(best, item)

    # Global heap over node tuples keyed by the aggregate lower bound.
    heap: List[Tuple[float, int, Tuple[int, ...]]] = []
    seq = 0

    def push(bound: float, pages: Tuple[int, ...]) -> None:
        nonlocal seq
        if bound > threshold():
            return
        seq += 1
        heapq.heappush(heap, (bound, seq, pages))
        stats.queue_inserts += 1
        if len(heap) > stats.max_queue_size:
            stats.max_queue_size = len(heap)

    def process(nodes: Sequence[Node]) -> None:
        stats.node_pairs_visited += 1
        if all(node.is_leaf for node in nodes):
            tensor = _distance_tensor(nodes, edges, metric)
            stats.distance_computations += tensor.size
            limit = threshold()
            flat = tensor.ravel()
            candidates = np.nonzero(flat <= limit)[0]
            if candidates.size == 0:
                return
            values = flat[candidates]
            for r in np.argsort(values, kind="stable"):
                value = float(values[r])
                if value > threshold():
                    break
                index = np.unravel_index(candidates[r], tensor.shape)
                entries = [
                    node.entries[i] for node, i in zip(nodes, index)
                ]
                offer(
                    ClosestTuple(
                        value,
                        tuple(e.point for e in entries),
                        tuple(e.oid for e in entries),
                    )
                )
            return
        # Expand every non-leaf member simultaneously; leaf members of
        # a mixed-level tuple stay fixed (single pseudo-candidate).
        sides = [_expansion_side(node) for node in nodes]
        tensor = _bound_tensor(sides, edges, metric)
        limit = threshold()
        flat = tensor.ravel()
        survivors = np.nonzero(flat <= limit)[0]
        for position in survivors:
            index = np.unravel_index(int(position), tensor.shape)
            pages = tuple(
                side[2][i] for side, i in zip(sides, index)
            )
            push(float(flat[position]), pages)

    roots = [tree.read_node(tree.root_id) for tree in trees]
    process(roots)
    while heap:
        bound, __, pages = heapq.heappop(heap)
        if bound > threshold():
            break
        nodes = [
            tree.read_node(page) for tree, page in zip(trees, pages)
        ]
        process(nodes)

    result.tuples = sorted(t for __, __, t in best)
    settle_io()
    return result


def brute_force_tuples(
    point_sets: Sequence[Sequence[Tuple[float, ...]]],
    k: int,
    graph: str = "chain",
    metric: MinkowskiMetric = EUCLIDEAN,
) -> List[float]:
    """Reference implementation (tests/benchmarks only): the K smallest
    aggregate distances by exhaustive enumeration."""
    edges = _edges(len(point_sets), graph)
    distances = []
    for combo in itertools.product(*point_sets):
        total = sum(
            metric.distance(combo[a], combo[b]) for a, b in edges
        )
        distances.append(total)
    distances.sort()
    return distances[:k]

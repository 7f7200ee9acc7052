"""Self-CPQ: the K closest pairs *within* one data set (Section 6).

"In the first case, both data sets actually refer to the same entity
(P = Q)."  Joining a tree with itself needs three adjustments to the
standard machinery:

* a point must not pair with itself, and the symmetric pair (q, p)
  duplicates (p, q) -- results are canonicalised to ``p_oid < q_oid``;
* MINMAXDIST-based tightening of T is only sound for *distinct* nodes
  (for a node paired with itself, the "guaranteed pair" of Inequality 2
  may be a point with itself at distance 0);
* a node paired with itself yields each unordered pair of its
  children once.

The engine's HEAP applies them in self-join mode
(:attr:`repro.core.engine.CPQContext.self_join`), which the registered
algorithm ``"self"`` selects; this module is its one-tree entry point.
"""

from __future__ import annotations

from repro.core.api import CPQRequest, k_closest_pairs
from repro.core.result import CPQResult
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.rtree.tree import RTree


def self_k_closest_pairs(
    tree: RTree,
    k: int = 1,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> CPQResult:
    """The K closest pairs of distinct points of one indexed set."""
    return k_closest_pairs(tree, tree, CPQRequest(
        k=k, algorithm="self", metric=metric,
    ))

"""Query execution helpers shared by the figure runners."""

from __future__ import annotations

from typing import Optional

from repro.core.api import CPQRequest, k_closest_pairs
from repro.core.result import CPQResult
from repro.core.ties import TieBreak
from repro.incremental.distance_join import k_distance_join
from repro.rtree.tree import RTree

#: The non-incremental algorithms compared throughout Sections 4-5.
PAPER_ALGORITHMS = ("exh", "sim", "std", "heap")

#: The incremental policies of Section 5.2 (BAS is reported by the
#: paper as "inefficient for most settings" and excluded from Fig. 10).
INCREMENTAL_POLICIES = ("bas", "evn", "sml")


def run_cpq(
    tree_p: RTree,
    tree_q: RTree,
    algorithm: str,
    k: int = 1,
    buffer_pages: int = 0,
    height_strategy: str = "fix-at-root",
    tie_break: Optional[object] = None,
    workers: int = 1,
) -> CPQResult:
    """One cold-cache CPQ execution with a total LRU budget of
    ``buffer_pages`` (split B/2 per tree, as in Section 4.3.3)."""
    request = CPQRequest(
        k=k,
        algorithm=algorithm,
        height_strategy=height_strategy,
        tie_break=TieBreak.parse(tie_break) if tie_break is not None else None,
        buffer_pages=buffer_pages,
        workers=workers,
    )
    return k_closest_pairs(tree_p, tree_q, request=request)


def run_incremental(
    tree_p: RTree,
    tree_q: RTree,
    policy: str,
    k: int = 1,
    buffer_pages: int = 0,
) -> CPQResult:
    """One cold-cache incremental distance join bounded at K pairs."""
    return k_distance_join(
        tree_p,
        tree_q,
        k=k,
        policy=policy,
        buffer_pages=buffer_pages,
    )

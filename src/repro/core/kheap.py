"""The K-heap: running set of the K closest pairs found so far.

Section 3.8: "an extra structure that holds the K Closest Pairs ... is
organized as a max heap (called K-heap) and holds pairs of points
according to their distance.  The pair of points with the largest
distance resides on top."  Once full, its top distance is the pruning
bound ``T``; a newly discovered pair replaces the top only if closer.

Tie-breaking is *canonical*: pairs are compared by the full
:class:`~repro.core.result.ClosestPair` total order (distance, then
point coordinates, then object ids), not by discovery order.  The
retained set is therefore exactly the K smallest pairs in that total
order among all pairs ever offered -- a pure function of the offered
*set*, independent of offer order.  This is what makes the parallel
executor (:mod:`repro.core.parallel`) byte-identical to the serial
path: any traversal that offers every pair within the final bound
yields the same K-heap content, including tie order.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, List

from repro.core.result import ClosestPair


class _MaxItem:
    """Inverts :class:`ClosestPair` ordering so heapq acts as a max-heap."""

    __slots__ = ("pair",)

    def __init__(self, pair: ClosestPair):
        self.pair = pair

    def __lt__(self, other: "_MaxItem") -> bool:
        return other.pair < self.pair


class KHeap:
    """Bounded max-heap of the best (smallest-distance) K pairs.

    Implemented over :mod:`heapq` (a min-heap) with inverted-comparison
    items.  The heap top is the *canonically largest* retained pair;
    once full, an offered pair enters only when it is canonically
    smaller than the top, so equal-distance ties resolve by the pair's
    own total order rather than by arrival order.
    """

    __slots__ = ("k", "_heap", "threshold")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: List[_MaxItem] = []
        #: Current pruning bound: the K-th best distance, or +inf while
        #: the heap has empty slots and every pair is a candidate
        #: (Section 3.8).  A plain attribute kept current by
        #: :meth:`offer`, the only mutator, because the traversal reads
        #: it once per candidate.
        self.threshold = math.inf

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    def offer(self, pair: ClosestPair) -> bool:
        """Consider a pair; returns True when it entered the heap."""
        heap = self._heap
        if len(heap) < self.k:
            heapq.heappush(heap, _MaxItem(pair))
        elif pair < heap[0].pair:
            heapq.heapreplace(heap, _MaxItem(pair))
        else:
            return False
        if len(heap) >= self.k:
            self.threshold = heap[0].pair.distance
        return True

    def sorted_pairs(self) -> List[ClosestPair]:
        """The held pairs in ascending canonical order."""
        return sorted(item.pair for item in self._heap)

    def __iter__(self) -> Iterator[ClosestPair]:
        return (item.pair for item in self._heap)

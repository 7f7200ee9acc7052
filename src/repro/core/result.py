"""Result types for closest pair queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.storage.stats import QueryStats

Point = Tuple[float, ...]


@dataclass(frozen=True, order=True)
class ClosestPair:
    """One result pair: a point of P and a point of Q with their distance.

    Ordering is by distance (then coordinates), so a sorted list of
    ClosestPair objects is in the paper's result order.
    """

    distance: float
    p: Point
    q: Point
    p_oid: int = 0
    q_oid: int = 0


@dataclass
class CPQResult:
    """The outcome of one K-CPQ execution.

    ``pairs`` holds the K closest pairs sorted by ascending distance
    (fewer than K when ``|P| * |Q| < K``).  ``stats`` carries the cost
    counters -- ``stats.disk_accesses`` is the number the paper plots.
    ``trace`` is the finished root span when the query was issued with
    ``CPQRequest(trace=True)`` and no external tracer; ``None``
    otherwise.
    """

    pairs: List[ClosestPair] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    algorithm: str = ""
    k: int = 1
    trace: Optional[object] = None

    @property
    def max_distance(self) -> float:
        """Distance of the K-th (worst) reported pair."""
        if not self.pairs:
            raise ValueError("empty result has no distances")
        return self.pairs[-1].distance

    @property
    def min_distance(self) -> float:
        """Distance of the closest reported pair."""
        if not self.pairs:
            raise ValueError("empty result has no distances")
        return self.pairs[0].distance

    def distances(self) -> List[float]:
        return [pair.distance for pair in self.pairs]

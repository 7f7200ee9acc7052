"""Tie-break criteria T1-T5 (Section 3.6).

The STD and HEAP algorithms order candidate MBR pairs by MINMINDIST;
ties are frequent for overlapping data sets (many pairs share
MINMINDIST = 0).  The paper proposes five heuristics for choosing
among tied pairs; T1 is the experimental winner (Figure 2).

Each criterion produces a *sort key* (smaller = processed earlier) from
a candidate pair.  Criteria can be chained: "in case the criterion we
use can not resolve the tie, another criterion may be used at a second
stage."

The traversal computes the keys of a whole candidate set at once
(:meth:`TieBreak.keys` over :class:`CandidateBoxes`), with NumPy
operations that repeat the float arithmetic of the per-candidate
:meth:`TieCriterion.key` exactly: areas are the same left-to-right
products as :meth:`MBR.area`.  The per-candidate form over
:class:`CandidateGeometry` is the reference the batched form is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.mbr import MBR
from repro.geometry.metrics import minmaxdist


@dataclass
class CandidateGeometry:
    """The geometric context a tie criterion may consult."""

    mbr_p: MBR
    mbr_q: MBR
    #: MINMAXDIST of the pair when the algorithm already computed it.
    minmax: Optional[float] = None
    #: Areas of the two tree roots (T1 normalises by them).
    root_area_p: float = 1.0
    root_area_q: float = 1.0

    def minmaxdist(self) -> float:
        if self.minmax is None:
            self.minmax = minmaxdist(self.mbr_p, self.mbr_q)
        return self.minmax


@dataclass
class CandidateBoxes:
    """The geometric context of many candidate pairs at once.

    Candidate ``i`` pairs box ``idx_p[i]`` of the P-side boxes
    ``lo_p`` / ``hi_p`` (shape ``(n_p, k)``) with box ``idx_q[i]`` of the
    Q-side boxes -- the layout of a node's ``lo_array()`` /
    ``hi_array()``, or of a single box for a side that is not expanded.
    """

    lo_p: np.ndarray
    hi_p: np.ndarray
    idx_p: np.ndarray
    lo_q: np.ndarray
    hi_q: np.ndarray
    idx_q: np.ndarray
    #: MINMAXDIST per candidate when the algorithm already computed it.
    minmax: Optional[np.ndarray] = None
    root_area_p: float = 1.0
    root_area_q: float = 1.0

    def area_p(self) -> np.ndarray:
        return _product(self.hi_p - self.lo_p)[self.idx_p]

    def area_q(self) -> np.ndarray:
        return _product(self.hi_q - self.lo_q)[self.idx_q]

    def rows(self):
        """Per-candidate ``(lo_p, hi_p, lo_q, hi_q)`` row arrays."""
        return (self.lo_p[self.idx_p], self.hi_p[self.idx_p],
                self.lo_q[self.idx_q], self.hi_q[self.idx_q])

    def minmaxdist(self) -> np.ndarray:
        if self.minmax is None:
            # Same Euclidean fallback as CandidateGeometry.minmaxdist.
            self.minmax = np.array([
                minmaxdist(MBR._trusted(tuple(lp), tuple(hp)),
                           MBR._trusted(tuple(lq), tuple(hq)))
                for lp, hp, lq, hq in zip(*(r.tolist() for r in self.rows()))
            ], dtype=float)
        return self.minmax


def _product(sides: np.ndarray) -> np.ndarray:
    """Row products of ``(n, k)`` side lengths, left to right as in
    :meth:`MBR.area` (whose leading ``1.0 *`` is exact)."""
    out = sides[:, 0].copy()
    for j in range(1, sides.shape[1]):
        out *= sides[:, j]
    return out


class TieCriterion:
    """A named tie-break heuristic.

    ``key`` evaluates one :class:`CandidateGeometry`; ``batch`` all
    candidates of a :class:`CandidateBoxes` at once, with identical
    values.
    """

    def __init__(
        self,
        name: str,
        description: str,
        key: Callable[[CandidateGeometry], float],
        batch: Callable[[CandidateBoxes], np.ndarray],
    ):
        self.name = name
        self.description = description
        self._key = key
        self._batch = batch

    def key(self, candidate: CandidateGeometry) -> float:
        """Sort key; the smallest key wins the tie."""
        return self._key(candidate)

    def keys(self, boxes: CandidateBoxes) -> np.ndarray:
        """Sort keys of every candidate in ``boxes``."""
        return self._batch(boxes)

    def __repr__(self) -> str:
        return f"TieCriterion({self.name})"


def _t1_largest_root_relative_mbr(c: CandidateGeometry) -> float:
    # T1: the pair having as one of its elements the largest MBR, with
    # area expressed as a percentage of the area of the relevant root.
    rel_p = c.mbr_p.area() / c.root_area_p if c.root_area_p > 0 else 0.0
    rel_q = c.mbr_q.area() / c.root_area_q if c.root_area_q > 0 else 0.0
    return -max(rel_p, rel_q)


def _t2_smallest_minmaxdist(c: CandidateGeometry) -> float:
    # T2: the smallest MINMAXDIST between the pair's two elements.
    return c.minmaxdist()


def _t3_largest_area_sum(c: CandidateGeometry) -> float:
    # T3: the largest sum of the areas of the two elements.
    return -(c.mbr_p.area() + c.mbr_q.area())


def _t4_smallest_dead_space(c: CandidateGeometry) -> float:
    # T4: the smallest difference between the area of the MBR embedding
    # both elements and the elements' own areas.
    embedding = c.mbr_p.union(c.mbr_q).area()
    return embedding - (c.mbr_p.area() + c.mbr_q.area())


def _t5_largest_intersection(c: CandidateGeometry) -> float:
    # T5: the largest area of intersection between the two elements.
    return -c.mbr_p.intersection_area(c.mbr_q)


def _relative(area: np.ndarray, root_area: float) -> np.ndarray:
    return area / root_area if root_area > 0 else np.zeros_like(area)


def _t1_batch(b: CandidateBoxes) -> np.ndarray:
    return -np.maximum(_relative(b.area_p(), b.root_area_p),
                       _relative(b.area_q(), b.root_area_q))


def _t4_batch(b: CandidateBoxes) -> np.ndarray:
    lo_p, hi_p, lo_q, hi_q = b.rows()
    embedding = _product(np.maximum(hi_p, hi_q) - np.minimum(lo_p, lo_q))
    return embedding - (b.area_p() + b.area_q())


def _t5_batch(b: CandidateBoxes) -> np.ndarray:
    lo_p, hi_p, lo_q, hi_q = b.rows()
    sides = np.minimum(hi_p, hi_q) - np.maximum(lo_p, lo_q)
    disjoint = np.any(sides <= 0.0, axis=1)
    return -np.where(disjoint, 0.0, _product(sides))


T1 = TieCriterion("T1", "largest root-relative MBR",
                  _t1_largest_root_relative_mbr, _t1_batch)
T2 = TieCriterion("T2", "smallest MINMAXDIST", _t2_smallest_minmaxdist,
                  CandidateBoxes.minmaxdist)
T3 = TieCriterion("T3", "largest sum of areas", _t3_largest_area_sum,
                  lambda b: -(b.area_p() + b.area_q()))
T4 = TieCriterion("T4", "smallest embedding dead space",
                  _t4_smallest_dead_space, _t4_batch)
T5 = TieCriterion("T5", "largest intersection area",
                  _t5_largest_intersection, _t5_batch)

#: All five criteria by name, as evaluated in Figure 2.
TIE_CRITERIA: Dict[str, TieCriterion] = {
    t.name: t for t in (T1, T2, T3, T4, T5)
}


class TieBreak:
    """A chain of criteria applied in order (first that differs wins)."""

    def __init__(self, criteria: Sequence[TieCriterion]):
        self.criteria = list(criteria)

    @classmethod
    def parse(cls, spec) -> "TieBreak":
        """Accept a TieBreak, a criterion, a name, or a name sequence."""
        if isinstance(spec, TieBreak):
            return spec
        if isinstance(spec, TieCriterion):
            return cls([spec])
        if isinstance(spec, str):
            return cls([_lookup(spec)])
        return cls([
            c if isinstance(c, TieCriterion) else _lookup(c) for c in spec
        ])

    def key(self, candidate: CandidateGeometry) -> Tuple[float, ...]:
        return tuple(c.key(candidate) for c in self.criteria)

    def keys(self, boxes: CandidateBoxes) -> List[Tuple[float, ...]]:
        """:meth:`key` of every candidate in ``boxes``, in order; the
        empty chain keys each ``()``, leaving ties in insertion order."""
        if not self.criteria:
            return [()] * len(boxes.idx_p)
        return list(zip(*(c.keys(boxes).tolist() for c in self.criteria)))

    def __repr__(self) -> str:
        return "TieBreak(" + "+".join(c.name for c in self.criteria) + ")"


def _lookup(name: str) -> TieCriterion:
    try:
        return TIE_CRITERIA[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown tie criterion {name!r}; expected one of "
            f"{sorted(TIE_CRITERIA)}"
        ) from None


#: The default used by STD and HEAP -- the paper's winner.
DEFAULT_TIE_BREAK = TieBreak([T1])

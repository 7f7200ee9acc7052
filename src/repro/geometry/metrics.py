"""Distance metrics between MBRs and points (paper Section 2.3).

The CPQ algorithms prune the search space with three metrics between a
pair of MBRs ``(MP, MQ)``:

* ``MINMINDIST`` -- the smallest possible distance between a point in
  MP and a point in MQ (0 when the boxes intersect).  Lower bound of
  Inequality 1.
* ``MAXMAXDIST`` -- the largest possible such distance.  Upper bound of
  Inequality 1 and the pruning bound of the K-CPQ variants.
* ``MINMAXDIST`` -- an upper bound on the distance of *at least one*
  pair of points (Inequality 2), valid because every face of an MBR
  touches at least one indexed point.  Used by the 1-CPQ algorithms to
  tighten ``T`` early.

The point-to-MBR metrics of Roussopoulos et al. (``point_mbr_mindist``
and ``point_mbr_minmaxdist``) power the K-NN substrate query and are
also exercised by the property tests as the 1-point degenerate case of
the pairwise metrics.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry.mbr import MBR
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric


def mindist(a: MBR, b: MBR, metric: MinkowskiMetric = EUCLIDEAN) -> float:
    """Minimum distance between any point of ``a`` and any point of ``b``.

    Zero when the boxes intersect.  This is the box-level form of the
    paper's MINMINDIST (the minimum over face pairs of the face-level
    MINDIST equals the box-level value).
    """
    deltas = []
    for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi):
        if al > bh:
            deltas.append(al - bh)
        elif bl > ah:
            deltas.append(bl - ah)
        else:
            deltas.append(0.0)
    return metric.finish(metric.combine(deltas))


def maxdist(a: MBR, b: MBR, metric: MinkowskiMetric = EUCLIDEAN) -> float:
    """Maximum distance between any point of ``a`` and any point of ``b``."""
    deltas = [
        max(abs(ah - bl), abs(bh - al))
        for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi)
    ]
    return metric.finish(metric.combine(deltas))


def minmindist(a: MBR, b: MBR, metric: MinkowskiMetric = EUCLIDEAN) -> float:
    """MINMINDIST(MP, MQ): lower bound for every point pair (Ineq. 1)."""
    return mindist(a, b, metric)


def maxmaxdist(a: MBR, b: MBR, metric: MinkowskiMetric = EUCLIDEAN) -> float:
    """MAXMAXDIST(MP, MQ): upper bound for every point pair (Ineq. 1)."""
    return maxdist(a, b, metric)


def _power(delta: float, p: float) -> float:
    if p == 2.0:
        return delta * delta
    if p == 1.0:
        return delta
    return delta ** p


def minmaxdist(a: MBR, b: MBR, metric: MinkowskiMetric = EUCLIDEAN) -> float:
    """MINMAXDIST(MP, MQ): min over face pairs of the face MAXDIST.

    Guarantees that at least one pair of indexed points (one from each
    box) lies within this distance, because every face of an MBR
    contains at least one point and any two points on a pair of faces
    are at most MAXDIST(face, face) apart (Inequality 2 of the paper).

    For finite ``p`` this uses the same branch-free closed form as
    ``repro.geometry.vectorized.pairwise_minmaxdist``, built from the
    same four absolute bound gaps per dimension and summed in the same
    order.  The kernel takes the minimum over ``l != j`` before adding
    it, which rounding (monotone) cannot tell apart from the minimum
    over all ``(j, l)`` sums below, so this oracle and the kernel
    produce bit-identical values; the Chebyshev metric keeps the
    literal face enumeration (as does the kernel).
    """
    p = metric.p
    if p == math.inf:
        best = None
        for fa in a.faces():
            for fb in b.faces():
                d = maxdist(fa, fb, metric)
                if best is None or d < best:
                    best = d
        assert best is not None
        return best

    k = len(a.lo)
    mxp = []
    pap = []
    pbp = []
    pabp = []
    total = 0.0
    for j, (al, ah, bl, bh) in enumerate(zip(a.lo, a.hi, b.lo, b.hi)):
        ll, lh = abs(al - bl), abs(al - bh)
        hl, hh = abs(ah - bl), abs(ah - bh)
        mp = _power(max(hl, lh), p)
        total = mp if j == 0 else total + mp
        mxp.append(mp)
        pap.append(_power(min(max(ll, lh), max(hl, hh)), p))
        pbp.append(_power(min(max(ll, hl), max(lh, hh)), p))
        pabp.append(_power(min(min(ll, lh), min(hl, hh)), p))
    # Both faces pin the same dimension j.
    best = min((total - mxp[j]) + pabp[j] for j in range(k))
    # Faces pin different dimensions j (side a) and l != j (side b).
    if k > 1:
        u = [pap[j] - mxp[j] for j in range(k)]
        v = [pbp[j] - mxp[j] for j in range(k)]
        cross = min(
            u[j] + v[l] for j in range(k) for l in range(k) if l != j
        )
        best = min(best, total + cross)
    return metric.finish(best)


def point_mbr_mindist(
    point: Sequence[float], box: MBR, metric: MinkowskiMetric = EUCLIDEAN
) -> float:
    """MINDIST(p, R) of Roussopoulos et al.: distance to the nearest
    possible location inside ``box``."""
    deltas = []
    for v, lo, hi in zip(point, box.lo, box.hi):
        if v < lo:
            deltas.append(lo - v)
        elif v > hi:
            deltas.append(v - hi)
        else:
            deltas.append(0.0)
    return metric.finish(metric.combine(deltas))


def point_mbr_minmaxdist(
    point: Sequence[float], box: MBR, metric: MinkowskiMetric = EUCLIDEAN
) -> float:
    """MINMAXDIST(p, R) of Roussopoulos et al.

    Upper bound on the distance from ``point`` to at least one object
    inside ``box``: along one dimension go to the *nearer* face, along
    every other dimension go to the *farther* bound, and take the best
    choice of pinned dimension.
    """
    dims = len(point)
    # Farthest per-dimension delta (used for the non-pinned dimensions).
    far = [
        max(abs(v - lo), abs(v - hi))
        for v, lo, hi in zip(point, box.lo, box.hi)
    ]
    # Nearer-face delta per dimension (used for the pinned dimension).
    near = []
    for v, lo, hi in zip(point, box.lo, box.hi):
        nearer_face = lo if v <= (lo + hi) / 2.0 else hi
        near.append(abs(v - nearer_face))
    best = None
    for k in range(dims):
        deltas = [near[d] if d == k else far[d] for d in range(dims)]
        d = metric.finish(metric.combine(deltas))
        if best is None or d < best:
            best = d
    assert best is not None
    return best

"""NumPy batch versions of the Section 2.3 metrics.

The CPQ algorithms repeatedly evaluate metrics between *every* pair of
entries of two R-tree nodes (up to M x M = 441 pairs per node pair with
the paper's 1 KiB pages).  These helpers compute whole matrices of
MINMINDIST / MAXMAXDIST / MINMAXDIST values in a handful of vectorised
operations, which is what keeps the pure-Python reproduction fast
enough for paper-scale experiments.

All functions take rectangle arrays ``lo`` / ``hi`` of shape ``(n, k)``
and return an ``(n, m)`` matrix for the cross product of the two sides.
Points are passed as degenerate rectangles or as ``(n, k)`` coordinate
arrays where noted.

Each kernel loops over the k dimensions on 2-D ``(n, m)`` arrays of
per-dimension deltas, accumulated left to right as the scalar helpers
of :mod:`repro.geometry.metrics` do; with k = 2 or 3 and n, m <= M a
few whole-matrix operations per dimension beat ``(n, m, k)`` tensors.

Every public kernel tallies its invocation into :data:`KERNEL_STATS`
(calls and entry pairs evaluated), which the service metrics snapshot
exposes for cost-model recalibration.

The MINMAXDIST kernel uses a branch-free closed form of Definition 3
for finite-``p`` Minkowski metrics instead of enumerating the 2k x 2k
face pairs.  Fixing a face means pinning one dimension of one rectangle
to a bound; only the pinned dimensions change their per-dimension
MAXDIST contribution, so with ``S`` the powered MAXDIST sum the face
minimum is the best of

* ``S - Mx_j^p + pAB_j^p`` when both faces pin the *same* dimension
  ``j`` (``pAB_j`` is the closest bound-to-bound gap), and
* ``S + (pA_j^p - Mx_j^p) + (pB_l^p - Mx_l^p)`` over ``j != l`` when
  they pin different dimensions (``pA_j`` / ``pB_l`` are the best
  pinned-bound MAXDIST deltas of the respective sides).

All of these are mins and maxes of four absolute bound gaps per
dimension, ``|lo-lo|``, ``|lo-hi|``, ``|hi-lo|`` and ``|hi-hi|``
(``|x| == |-x|`` exactly in IEEE arithmetic).
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Dict

import numpy as np

from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric


class KernelStats:
    """Process-wide tally of pairwise-kernel invocations.

    Tracks, per kernel name, how many times it ran and how many entry
    pairs it evaluated.  The scalar engine path records under
    ``*_scalar`` names so the two implementations can be compared from
    one service metrics snapshot (``snapshot()["kernels"]``) and the
    cost model recalibrated against real pair counts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, list] = {}

    def record(self, kernel: str, pairs: int) -> None:
        """Count one invocation of ``kernel`` covering ``pairs`` pairs."""
        with self._lock:
            cell = self._counts.setdefault(kernel, [0, 0])
            cell[0] += 1
            cell[1] += int(pairs)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Return ``{kernel: {"calls": c, "pairs": p}}``."""
        with self._lock:
            return {
                name: {"calls": cell[0], "pairs": cell[1]}
                for name, cell in sorted(self._counts.items())
            }

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


#: Shared tally used by all kernels in this module and by the scalar
#: fallback helpers in ``repro.core.engine``.
KERNEL_STATS = KernelStats()


def _combine(deltas, metric: MinkowskiMetric) -> np.ndarray:
    """Aggregate per-dimension delta arrays into distances.

    ``deltas`` yields one freshly allocated non-negative array per
    dimension (all of one shape); they are consumed in place, summed
    as powers (or maxed, for Chebyshev) left to right.
    """
    p = metric.p
    deltas = iter(deltas)
    if p == math.inf:
        out = next(deltas)
        for delta in deltas:
            np.maximum(out, delta, out=out)
        return out
    out = _power(next(deltas), p)
    for delta in deltas:
        out += _power(delta, p)
    return _finish(out, p)


def _power(deltas: np.ndarray, p: float) -> np.ndarray:
    """Per-dimension power term of a finite-``p`` Minkowski metric."""
    if p == 2.0:
        return np.multiply(deltas, deltas, out=deltas)
    if p == 1.0:
        return deltas
    return deltas ** p


def _finish(powered: np.ndarray, p: float) -> np.ndarray:
    """Invert :func:`_power` sums into distances (finite ``p`` only)."""
    if p == 2.0:
        return np.sqrt(powered)
    if p == 1.0:
        return powered
    return powered ** (1.0 / p)


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a - b|`` as a new array."""
    out = a - b
    return np.abs(out, out=out)


def _columns(a: np.ndarray, b: np.ndarray):
    """Per dimension: the column of ``a`` as ``(n, 1)`` and of ``b`` as
    ``(1, m)``, so that operations on them broadcast to ``(n, m)``."""
    return zip(a.T[:, :, None], b.T[:, None, :])


def _aligned(a: np.ndarray, b: np.ndarray):
    """Per dimension: the columns of ``a`` and ``b``, row by row."""
    return zip(a.T, b.T)


def _point_deltas(points_a, points_b):
    for a, b in _columns(points_a, points_b):
        yield _gap(a, b)


def _mindist_deltas(lo_a, hi_a, lo_b, hi_b, columns=_columns):
    for (a_lo, b_hi), (a_hi, b_lo) in zip(columns(lo_a, hi_b),
                                          columns(hi_a, lo_b)):
        yield np.maximum(np.maximum(a_lo - b_hi, b_lo - a_hi), 0.0)


def _maxdist_deltas(lo_a, hi_a, lo_b, hi_b):
    for (a_hi, b_lo), (a_lo, b_hi) in zip(_columns(hi_a, lo_b),
                                          _columns(lo_a, hi_b)):
        out = _gap(a_hi, b_lo)
        yield np.maximum(out, _gap(b_hi, a_lo), out=out)


def pairwise_point_distances(
    points_a: np.ndarray,
    points_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """All distances between two point arrays; shape ``(n, m)``."""
    out = _combine(_point_deltas(points_a, points_b), metric)
    KERNEL_STATS.record("points", out.size)
    return out


def pairwise_mindist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MINMINDIST matrix between two rectangle arrays; shape ``(n, m)``."""
    out = _combine(_mindist_deltas(lo_a, hi_a, lo_b, hi_b), metric)
    KERNEL_STATS.record("minmin", out.size)
    return out


def pairwise_maxdist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MAXMAXDIST matrix between two rectangle arrays; shape ``(n, m)``."""
    out = _combine(_maxdist_deltas(lo_a, hi_a, lo_b, hi_b), metric)
    KERNEL_STATS.record("maxmax", out.size)
    return out


def _faces(lo: np.ndarray, hi: np.ndarray):
    """The 2k faces of every box: one dimension pinned to one bound."""
    for d in range(lo.shape[1]):
        for bound in (lo, hi):
            face_lo, face_hi = lo.copy(), hi.copy()
            face_lo[:, d] = face_hi[:, d] = bound[:, d]
            yield face_lo, face_hi


def _minmaxdist_faces(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric,
) -> np.ndarray:
    """Literal Definition 3: min over 2k x 2k face pairs of MAXDIST.

    Kept as the Chebyshev (``p = inf``) path, where the powered-sum
    decomposition of the branch-free form does not apply.
    """
    best = np.full((len(lo_a), len(lo_b)), np.inf)
    for face_lo_a, face_hi_a in _faces(lo_a, hi_a):
        for face_lo_b, face_hi_b in _faces(lo_b, hi_b):
            deltas = _maxdist_deltas(face_lo_a, face_hi_a,
                                     face_lo_b, face_hi_b)
            np.minimum(best, _combine(deltas, metric), out=best)
    return best


def pairwise_minmaxdist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MINMAXDIST matrix between two rectangle arrays; shape ``(n, m)``.

    For finite ``p`` this evaluates the branch-free closed form of the
    face-pair minimum (module docstring); for the Chebyshev metric it
    falls back to literal face enumeration.  ``repro.geometry.metrics``
    mirrors the same arithmetic so the scalar engine path produces
    bit-identical values for p in {1, 2, inf}; other p agree to the
    last ulp (NumPy's array power and CPython's scalar ``pow`` may
    round differently).
    """
    p = metric.p
    if p == math.inf:
        out = _minmaxdist_faces(lo_a, hi_a, lo_b, hi_b, metric)
        KERNEL_STATS.record("minmax", out.size)
        return out
    # Per dimension: the powered MAXDIST term (mx) and the powered best
    # pinned-bound terms of side A (pa), side B (pb) and both (pab).
    mx, pa, pb, pab = [], [], [], []
    for (a_lo, b_lo), (a_hi, b_hi) in zip(_columns(lo_a, lo_b),
                                          _columns(hi_a, hi_b)):
        ll = _gap(a_lo, b_lo)
        lh = _gap(a_lo, b_hi)
        hl = _gap(a_hi, b_lo)
        hh = _gap(a_hi, b_hi)
        mx.append(_power(np.maximum(hl, lh), p))
        pa.append(_power(
            np.minimum(np.maximum(ll, lh), np.maximum(hl, hh)), p))
        pb.append(_power(
            np.minimum(np.maximum(ll, hl), np.maximum(lh, hh)), p))
        pab.append(_power(
            np.minimum(np.minimum(ll, lh), np.minimum(hl, hh)), p))
    k = len(mx)
    total = mx[0].copy()
    for j in range(1, k):
        total += mx[j]
    # Both faces pin the same dimension j.
    best = (total - mx[0]) + pab[0]
    for j in range(1, k):
        np.minimum(best, (total - mx[j]) + pab[j], out=best)
    # Faces pin different dimensions: j on side A, the best l != j on
    # side B.  Rounding is monotone, so taking the minimum over l before
    # the additions changes no bit.
    if k > 1:
        u = [a - m for a, m in zip(pa, mx)]
        v = [b - m for b, m in zip(pb, mx)]
        for j in range(k):
            v_rest = functools.reduce(np.minimum, v[:j] + v[j + 1:])
            np.minimum(best, total + (u[j] + v_rest), out=best)
    out = _finish(best, p)
    KERNEL_STATS.record("minmax", out.size)
    return out


def batch_mindist(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """Elementwise MINMINDIST of N rectangle *pairs*; shape ``(n,)``.

    Unlike :func:`pairwise_mindist` (the ``(n, m)`` cross product of
    two sides), this evaluates row ``i`` of side A against row ``i`` of
    side B only -- the shape needed to order an already-formed list of
    candidate pairs, e.g. the subtree-pair frontier of the parallel
    executor.  Same arithmetic as the pairwise kernel, so values are
    bit-identical to the corresponding matrix entries.
    """
    out = _combine(_mindist_deltas(lo_a, hi_a, lo_b, hi_b, _aligned), metric)
    KERNEL_STATS.record("minmin_batch", out.size)
    return out


def batch_mindist_argsort(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
):
    """Ascending stable MINMINDIST order of N rectangle pairs.

    Returns ``(order, values)`` where ``values`` is the elementwise
    MINMINDIST vector of :func:`batch_mindist` and ``order`` a stable
    mergesort argsort of it -- equal distances keep their input
    (deterministic) order, matching the paper's stable candidate
    sorting.
    """
    values = batch_mindist(lo_a, hi_a, lo_b, hi_b, metric)
    order = np.argsort(values, kind="stable")
    return order, values


def point_rect_mindist(
    points: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """MINDIST from each point to each rectangle; shape ``(n, m)``."""
    # A point is the degenerate box [point, point].
    return _combine(_mindist_deltas(points, points, lo, hi), metric)

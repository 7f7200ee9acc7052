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

Each kernel forms the per-dimension terms of all pairs as one
``(k, n, m)`` tensor from ``a.T[:, :, None]`` and ``b.T[:, None, :]``
and sums it over k left to right, as the scalar helpers of
:mod:`repro.geometry.metrics` do: at n, m <= M the cost is mostly
per-operation overhead, so whole-tensor operations win.  Nodes hand out
``(n, k)`` views of C-contiguous ``(k, n)`` arrays, so ``a.T`` is
contiguous; row-major inputs give the same values, only more slowly.

Every public kernel tallies its invocation into :data:`KERNEL_STATS`
(calls and entry pairs evaluated), which the service metrics snapshot
exposes as an observed tally.  A batched point-kernel call
counts once, with every element of its stack.

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
(``|x| == |-x|`` exactly in IEEE arithmetic), and ``S`` is the powered
MAXMAXDIST, so :func:`node_pair_bounds` derives all three node-pair
metrics from one tensor of signed bound gaps.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Dict, Optional

import numpy as np

from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric


class KernelStats:
    """Process-wide tally of pairwise-kernel invocations.

    Tracks, per kernel name, how many times it ran and how many entry
    pairs it evaluated, so one service metrics snapshot
    (``snapshot()["kernels"]``) shows the real pair counts.

    Each thread records into its own cell without a lock, and
    :meth:`snapshot` sums the cells.  A thread's first record folds the
    cells of exited threads into one retired cell, so their counts stay
    and the cells follow the live threads, not every thread started.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: thread -> its {kernel: [calls, pairs]}; None: exited threads
        self._cells: Dict[Optional[threading.Thread], Dict[str, list]] = {
            None: {}
        }

    def record(self, kernel: str, pairs: int) -> None:
        """Count one invocation of ``kernel`` covering ``pairs`` pairs."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = self._new_cell()
        cell = counts.get(kernel)
        if cell is None:
            cell = counts[kernel] = [0, 0]
        cell[0] += 1
        cell[1] += int(pairs)

    def _new_cell(self) -> Dict[str, list]:
        with self._lock:
            for thread in [t for t in self._cells
                           if t is not None and not t.is_alive()]:
                _add_cell(self._cells[None], self._cells.pop(thread))
            cell = self._cells[threading.current_thread()] = {}
        return cell

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Return ``{kernel: {"calls": c, "pairs": p}}``."""
        totals: Dict[str, list] = {}
        with self._lock:
            for cell in self._cells.values():
                _add_cell(totals, cell)
        return {
            name: {"calls": calls, "pairs": pairs}
            for name, (calls, pairs) in sorted(totals.items())
        }

    def reset(self) -> None:
        with self._lock:
            for cell in self._cells.values():
                cell.clear()


def _add_cell(totals: Dict[str, list], cell: Dict[str, list]) -> None:
    """Add the ``[calls, pairs]`` tallies of ``cell`` into ``totals``."""
    for name, (calls, pairs) in cell.copy().items():
        total = totals.setdefault(name, [0, 0])
        total[0] += calls
        total[1] += pairs


#: Shared tally used by all kernels in this module.
KERNEL_STATS = KernelStats()


def _reduce(terms: np.ndarray, p: float) -> np.ndarray:
    """Distances from a ``(k, ...)`` tensor of non-negative
    per-dimension deltas, which it may overwrite: powers summed over
    the leading axis left to right (maxed, for Chebyshev), by binary
    ufuncs, which for k <= 3 cost less than a NumPy reduction."""
    if p == math.inf:
        return functools.reduce(np.maximum, terms)
    return _finish(functools.reduce(np.add, _power(terms, p)), p)


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


def _differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(k, n, m)`` tensor of ``a[i, d] - b[j, d]``."""
    return a.T[:, :, None] - b.T[:, None, :]


def _mindist_terms(lo_hi: np.ndarray, hi_lo: np.ndarray) -> np.ndarray:
    """Per-dimension MINMINDIST deltas ``max(a_lo - b_hi, b_lo - a_hi,
    0)`` from the gaps ``a_lo - b_hi`` and ``a_hi - b_lo``."""
    out = np.negative(hi_lo)
    np.maximum(lo_hi, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _maxdist(lo_a, hi_a, lo_b, hi_b, p: float) -> np.ndarray:
    """MAXMAXDIST matrix: per dimension ``max(|a_hi - b_lo|,
    |a_lo - b_hi|)``."""
    far = _differences(hi_a, lo_b)
    np.abs(far, out=far)
    near = _differences(lo_a, hi_b)
    np.maximum(far, np.abs(near, out=near), out=far)
    return _reduce(far, p)


def _node_bounds(lo_a, hi_a, lo_b, hi_b, p: float):
    """Untallied ``(minmin, minmax, maxmax)`` matrices, all from one
    ``(2, 2, k, n, m)`` tensor ``g[i, j] = bound_i(a) - bound_j(b)``
    (bound 0 is ``lo``, bound 1 ``hi``)."""
    gaps = (np.array((lo_a.T, hi_a.T))[:, None, :, :, None]
            - np.array((lo_b.T, hi_b.T))[None, :, :, None, :])
    minmin = _reduce(_mindist_terms(gaps[0, 1], gaps[1, 0]), p)
    ll, lh, hl, hh = np.abs(gaps, out=gaps).reshape((4,) + gaps.shape[2:])
    if p == math.inf:
        return (minmin, _minmaxdist_faces(lo_a, hi_a, lo_b, hi_b, p),
                _reduce(np.maximum(hl, lh), p))
    # Per dimension: the MAXDIST term (mx) and the best pinned-bound
    # terms of side A (pa), side B (pb) and both (pab).
    mx, pa, pb, pab = _power(np.array((
        np.maximum(hl, lh),
        np.minimum(np.maximum(ll, lh), np.maximum(hl, hh)),
        np.minimum(np.maximum(ll, hl), np.maximum(lh, hh)),
        np.minimum(np.minimum(ll, lh), np.minimum(hl, hh)),
    )), p)
    total = functools.reduce(np.add, mx)
    # Both faces pin the same dimension j.
    best = functools.reduce(np.minimum, (total - mx) + pab)
    # Faces pin different dimensions j (side A) and l != j (side B).
    # Rounding is monotone, so the minimum over (j, l) may be taken
    # before adding ``total`` without changing a bit.
    k = len(mx)
    if k > 1:
        u, v = pa - mx, pb - mx
        cross = functools.reduce(np.minimum, (
            u[j] + v[l] for j in range(k) for l in range(k) if l != j
        ))
        np.minimum(best, total + cross, out=best)
    return minmin, _finish(best, p), _finish(total, p)


def pairwise_point_distances(
    points_a: np.ndarray,
    points_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
) -> np.ndarray:
    """All distances between two point arrays; shape ``(n, m)``.

    With a leading batch axis, ``(r, n, k)`` against ``(r, m, k)``, it
    returns the ``(r, n, m)`` stack of the ``r`` matrices in one call,
    each bitwise equal to its own two-dimensional call: every element
    takes the same operations in the same order.  Pass the batch as a
    view of a C-contiguous ``(k, r, n)`` array, as for single nodes.
    """
    if points_a.ndim == 3:
        deltas = (points_a.transpose(2, 0, 1)[:, :, :, None]
                  - points_b.transpose(2, 0, 1)[:, :, None, :])
    else:
        deltas = _differences(points_a, points_b)
    if metric.p != 2.0:  # squaring drops the sign exactly
        np.abs(deltas, out=deltas)
    out = _reduce(deltas, metric.p)
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
    out = _reduce(_mindist_terms(_differences(lo_a, hi_b),
                                 _differences(hi_a, lo_b)), metric.p)
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
    out = _maxdist(lo_a, hi_a, lo_b, hi_b, metric.p)
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
    p: float,
) -> np.ndarray:
    """Literal Definition 3: min over 2k x 2k face pairs of MAXDIST.

    Kept as the Chebyshev (``p = inf``) path, where the powered-sum
    decomposition of the branch-free form does not apply.
    """
    best = np.full((len(lo_a), len(lo_b)), np.inf)
    for face_lo_a, face_hi_a in _faces(lo_a, hi_a):
        for face_lo_b, face_hi_b in _faces(lo_b, hi_b):
            np.minimum(best, _maxdist(face_lo_a, face_hi_a,
                                      face_lo_b, face_hi_b, p), out=best)
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
    mirrors the same arithmetic so its scalar oracle produces
    bit-identical values for p in {1, 2, inf}; other p agree to the
    last ulp (NumPy's array power and CPython's scalar ``pow`` may
    round differently).
    """
    out = _node_bounds(lo_a, hi_a, lo_b, hi_b, metric.p)[1]
    KERNEL_STATS.record("minmax", out.size)
    return out


def node_pair_bounds(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    metric: MinkowskiMetric = EUCLIDEAN,
    maxmax: bool = True,
):
    """``(minmin, minmax, maxmax)`` matrices of one node pair, each
    bitwise equal to its public kernel's and tallied under its name;
    ``maxmax`` is ``None`` (and not tallied) unless asked for."""
    minmin, minmax, far = _node_bounds(lo_a, hi_a, lo_b, hi_b, metric.p)
    KERNEL_STATS.record("minmin", minmin.size)
    KERNEL_STATS.record("minmax", minmax.size)
    if not maxmax:
        return minmin, minmax, None
    KERNEL_STATS.record("maxmax", far.size)
    return minmin, minmax, far


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
    out = _reduce(_mindist_terms(lo_a.T - hi_b.T, hi_a.T - lo_b.T),
                  metric.p)
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
    return _reduce(_mindist_terms(_differences(points, hi),
                                  _differences(points, lo)), metric.p)

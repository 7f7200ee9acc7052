"""The vectorised metrics must agree exactly with the scalar ones."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.mbr import MBR
from repro.geometry.metrics import maxdist, mindist, minmaxdist
from repro.geometry.minkowski import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    MinkowskiMetric,
)
from repro.geometry.vectorized import (
    KernelStats,
    pairwise_maxdist,
    pairwise_mindist,
    pairwise_minmaxdist,
    pairwise_point_distances,
    point_rect_mindist,
)

coord = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
metrics = st.sampled_from(
    [EUCLIDEAN, MANHATTAN, CHEBYSHEV, MinkowskiMetric(3.0)]
)


@st.composite
def rect_arrays(draw, max_rects=5):
    n = draw(st.integers(min_value=1, max_value=max_rects))
    los, his = [], []
    for __ in range(n):
        a = (draw(coord), draw(coord))
        b = (draw(coord), draw(coord))
        los.append([min(a[0], b[0]), min(a[1], b[1])])
        his.append([max(a[0], b[0]), max(a[1], b[1])])
    return np.array(los), np.array(his)


def as_mbrs(lo, hi):
    return [MBR(l, h) for l, h in zip(lo, hi)]


@given(rect_arrays(), rect_arrays(), metrics)
def test_pairwise_mindist_matches_scalar(rects_a, rects_b, metric):
    lo_a, hi_a = rects_a
    lo_b, hi_b = rects_b
    matrix = pairwise_mindist(lo_a, hi_a, lo_b, hi_b, metric)
    for i, a in enumerate(as_mbrs(lo_a, hi_a)):
        for j, b in enumerate(as_mbrs(lo_b, hi_b)):
            assert matrix[i, j] == pytest.approx(
                mindist(a, b, metric), abs=1e-9
            )


@given(rect_arrays(), rect_arrays(), metrics)
def test_pairwise_maxdist_matches_scalar(rects_a, rects_b, metric):
    lo_a, hi_a = rects_a
    lo_b, hi_b = rects_b
    matrix = pairwise_maxdist(lo_a, hi_a, lo_b, hi_b, metric)
    for i, a in enumerate(as_mbrs(lo_a, hi_a)):
        for j, b in enumerate(as_mbrs(lo_b, hi_b)):
            assert matrix[i, j] == pytest.approx(
                maxdist(a, b, metric), abs=1e-9
            )


@given(rect_arrays(max_rects=3), rect_arrays(max_rects=3), metrics)
def test_pairwise_minmaxdist_matches_scalar(rects_a, rects_b, metric):
    lo_a, hi_a = rects_a
    lo_b, hi_b = rects_b
    matrix = pairwise_minmaxdist(lo_a, hi_a, lo_b, hi_b, metric)
    for i, a in enumerate(as_mbrs(lo_a, hi_a)):
        for j, b in enumerate(as_mbrs(lo_b, hi_b)):
            assert matrix[i, j] == pytest.approx(
                minmaxdist(a, b, metric), abs=1e-9
            )


@given(
    st.lists(st.tuples(coord, coord), min_size=1, max_size=6),
    st.lists(st.tuples(coord, coord), min_size=1, max_size=6),
    metrics,
)
def test_pairwise_point_distances(points_a, points_b, metric):
    matrix = pairwise_point_distances(
        np.array(points_a), np.array(points_b), metric
    )
    assert matrix.shape == (len(points_a), len(points_b))
    for i, a in enumerate(points_a):
        for j, b in enumerate(points_b):
            assert matrix[i, j] == pytest.approx(
                metric.distance(a, b), abs=1e-9
            )


@given(
    st.lists(st.tuples(coord, coord), min_size=1, max_size=5),
    rect_arrays(),
    metrics,
)
def test_point_rect_mindist(points, rects, metric):
    lo, hi = rects
    matrix = point_rect_mindist(np.array(points), lo, hi, metric)
    from repro.geometry.metrics import point_mbr_mindist

    for i, p in enumerate(points):
        for j, box in enumerate(as_mbrs(lo, hi)):
            assert matrix[i, j] == pytest.approx(
                point_mbr_mindist(p, box, metric), abs=1e-9
            )


def test_shapes():
    lo_a = np.zeros((3, 2))
    hi_a = np.ones((3, 2))
    lo_b = np.zeros((4, 2))
    hi_b = np.ones((4, 2))
    assert pairwise_mindist(lo_a, hi_a, lo_b, hi_b).shape == (3, 4)
    assert pairwise_maxdist(lo_a, hi_a, lo_b, hi_b).shape == (3, 4)
    assert pairwise_minmaxdist(lo_a, hi_a, lo_b, hi_b).shape == (3, 4)


# ---------------------------------------------------------------------------
# KernelStats: per-thread cells summed by snapshot().
# ---------------------------------------------------------------------------

def _run_threads(targets, timeout=30.0):
    threads = [threading.Thread(target=t) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive()


def test_kernel_stats_concurrent_totals_are_exact():
    stats = KernelStats()
    rounds = 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(seed):
            def run():
                for i in range(rounds):
                    stats.record("minmin", 3)
                    stats.record("points" if (i + seed) % 2 else "minmax",
                                 seed + 1)
            return run
        _run_threads([work(seed) for seed in range(8)])
    finally:
        sys.setswitchinterval(interval)
    # Every recording thread has exited; its counts remain.
    assert stats.snapshot() == {
        "minmax": {"calls": 8 * rounds // 2,
                   "pairs": sum(s + 1 for s in range(8)) * rounds // 2},
        "minmin": {"calls": 8 * rounds, "pairs": 8 * rounds * 3},
        "points": {"calls": 8 * rounds // 2,
                   "pairs": sum(s + 1 for s in range(8)) * rounds // 2},
    }


def test_kernel_stats_cells_do_not_grow_with_thread_churn():
    stats = KernelStats()
    stats.record("points", 1)
    for __ in range(200):
        _run_threads([lambda: stats.record("points", 2)])
    # The retired cell, this thread's and the last thread's at most.
    assert len(stats._cells) <= 3
    assert stats.snapshot() == {"points": {"calls": 201, "pairs": 401}}


def test_kernel_stats_reset_zeroes_every_cell():
    stats = KernelStats()
    started, release = threading.Event(), threading.Event()

    def live():
        stats.record("minmax", 5)
        started.set()
        release.wait(30)
        stats.record("minmax", 7)

    holder = threading.Thread(target=live)
    holder.start()
    try:
        assert started.wait(30)
        _run_threads([lambda: stats.record("maxmax", 4)])
        stats.record("points", 1)
        stats.reset()
        assert stats.snapshot() == {}
    finally:
        release.set()
        holder.join(30)
    assert not holder.is_alive()
    assert stats.snapshot() == {"minmax": {"calls": 1, "pairs": 7}}

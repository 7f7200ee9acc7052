"""The scalar and vectorised expansion paths must agree *bitwise*.

``CPQOptions.use_vectorized`` promises that switching implementations
never changes a result: the scalar helpers in
:mod:`repro.geometry.metrics` mirror the NumPy kernels of
:mod:`repro.geometry.vectorized` operation for operation (same
accumulation order, same parenthesisation), so their outputs are equal
as bit patterns, not merely to a tolerance.  These tests pin that
contract at two levels:

* kernel level -- Hypothesis-generated rectangle/point batches in
  d = 2 and d = 3 under Euclidean, Manhattan and Chebyshev metrics,
  compared with ``==``.  For a *general* Minkowski ``p`` the base
  power operation itself differs between NumPy's array ``**`` and
  CPython's scalar ``pow`` by up to 1 ulp, so there the contract is
  ULP-level closeness, not bit equality;
* tie-heavy kernel level -- coordinates on a coarse grid (equal gaps,
  MINMINDIST = 0), zero-extent and identical boxes and one-row sides,
  where every min/max selection in the kernels meets equal operands;
  p = 3 is held to at most 1 ulp there;
* tie keys -- the batched T1-T5 keys the traversal uses
  (:meth:`TieBreak.keys` over :class:`CandidateBoxes`) equal the
  per-candidate :meth:`TieCriterion.key` on the same tie-heavy boxes;
* query level -- every algorithm on a SEQUOIA-like sample returns
  byte-identical ``CPQResult.pairs`` (distances, points, oids, i.e.
  tie-break order too) and identical work counters with the flag on
  and off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CPQRequest, k_closest_pairs
from repro.core.api import CORE_ALGORITHMS as ALGORITHMS
from repro.core.ties import (
    TIE_CRITERIA,
    CandidateBoxes,
    CandidateGeometry,
    TieBreak,
)
from repro.datasets import overlapping_workspace, sequoia_like
from repro.datasets.workspace import UNIT_WORKSPACE
from repro.geometry.mbr import MBR
from repro.geometry.metrics import maxdist, mindist, minmaxdist
from repro.geometry.minkowski import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    MinkowskiMetric,
)
from repro.geometry.vectorized import (
    KERNEL_STATS,
    pairwise_maxdist,
    pairwise_mindist,
    pairwise_minmaxdist,
    pairwise_point_distances,
)
from repro.rtree.bulk import bulk_load

coord = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
)
metrics = st.sampled_from(
    [EUCLIDEAN, MANHATTAN, CHEBYSHEV, MinkowskiMetric(3.0)]
)
dimensions = st.sampled_from([2, 3])

#: p in {1, 2, inf} involves no ``x ** p``: bit-identical scalar and
#: vectorised results.  Other p go through pow, where NumPy and CPython
#: may differ in the last ulp.
EXACT_METRICS = (EUCLIDEAN, MANHATTAN, CHEBYSHEV)


def assert_matches(vectorized, scalar, metric):
    if metric in EXACT_METRICS:
        assert vectorized == scalar
    else:
        assert vectorized == pytest.approx(scalar, rel=1e-12, abs=1e-300)


@st.composite
def rect_batch(draw, dimension, max_rects=4):
    n = draw(st.integers(min_value=1, max_value=max_rects))
    los, his = [], []
    for __ in range(n):
        a = [draw(coord) for __ in range(dimension)]
        b = [draw(coord) for __ in range(dimension)]
        los.append([min(x, y) for x, y in zip(a, b)])
        his.append([max(x, y) for x, y in zip(a, b)])
    return np.array(los), np.array(his)


@st.composite
def two_rect_batches(draw):
    dimension = draw(dimensions)
    return draw(rect_batch(dimension)), draw(rect_batch(dimension))


@st.composite
def two_point_batches(draw):
    dimension = draw(dimensions)
    points = st.lists(
        st.tuples(*[coord] * dimension), min_size=1, max_size=5
    )
    return (
        np.array(draw(points), dtype=np.float64),
        np.array(draw(points), dtype=np.float64),
    )


def as_mbrs(lo, hi):
    return [MBR(tuple(l), tuple(h)) for l, h in zip(lo, hi)]


@pytest.mark.parametrize(
    "scalar_fn,vector_fn",
    [
        (mindist, pairwise_mindist),
        (maxdist, pairwise_maxdist),
        (minmaxdist, pairwise_minmaxdist),
    ],
    ids=["minmin", "maxmax", "minmax"],
)
@given(batches=two_rect_batches(), metric=metrics)
@settings(max_examples=150, deadline=None)
def test_rect_kernels_bitwise_equal(scalar_fn, vector_fn, batches, metric):
    (lo_a, hi_a), (lo_b, hi_b) = batches
    matrix = vector_fn(lo_a, hi_a, lo_b, hi_b, metric)
    for i, a in enumerate(as_mbrs(lo_a, hi_a)):
        for j, b in enumerate(as_mbrs(lo_b, hi_b)):
            assert_matches(matrix[i, j], scalar_fn(a, b, metric), metric)


@given(batches=two_point_batches(), metric=metrics)
@settings(max_examples=150, deadline=None)
def test_point_kernel_bitwise_equal(batches, metric):
    points_a, points_b = batches
    matrix = pairwise_point_distances(points_a, points_b, metric)
    for i, a in enumerate(points_a):
        for j, b in enumerate(points_b):
            assert_matches(
                matrix[i, j], metric.distance(tuple(a), tuple(b)), metric
            )


# ---------------------------------------------------------------------------
# Tie-heavy inputs: equal gaps, degenerate and repeated boxes.
# ---------------------------------------------------------------------------

#: Coarse grid coordinates: many equal gaps and touching boxes.
grid_coord = st.integers(min_value=-4, max_value=4).map(lambda v: v * 0.25)


def within_one_ulp(a, b):
    return a == b or abs(a - b) <= np.spacing(max(abs(a), abs(b)))


def assert_tie_heavy_match(vectorized, scalar, metric):
    if metric in EXACT_METRICS:
        assert vectorized == scalar
    else:
        assert within_one_ulp(vectorized, scalar), (vectorized, scalar)


@st.composite
def grid_side(draw, dimension, rows):
    """``rows`` grid boxes; some zero-extent, some repeated."""
    los, his = [], []
    for __ in range(rows):
        if los and draw(st.booleans()):
            los.append(los[-1])  # an identical box
            his.append(his[-1])
            continue
        a = [draw(grid_coord) for __ in range(dimension)]
        if draw(st.booleans()):
            b = a  # zero extent: a point
        else:
            b = [draw(grid_coord) for __ in range(dimension)]
        los.append([min(x, y) for x, y in zip(a, b)])
        his.append([max(x, y) for x, y in zip(a, b)])
    return np.array(los), np.array(his)


@st.composite
def tie_heavy_sides(draw):
    dimension = draw(dimensions)
    side_a = draw(grid_side(dimension, draw(st.integers(1, 5))))
    shape = draw(st.sampled_from(["independent", "identical", "one_row"]))
    if shape == "identical":
        side_b = (side_a[0].copy(), side_a[1].copy())
    else:
        rows = 1 if shape == "one_row" else draw(st.integers(1, 5))
        side_b = draw(grid_side(dimension, rows))
    if draw(st.booleans()):
        side_a, side_b = side_b, side_a
    return side_a, side_b


@pytest.mark.parametrize(
    "scalar_fn,vector_fn",
    [
        (mindist, pairwise_mindist),
        (maxdist, pairwise_maxdist),
        (minmaxdist, pairwise_minmaxdist),
    ],
    ids=["minmin", "maxmax", "minmax"],
)
@given(sides=tie_heavy_sides(), metric=metrics)
@settings(max_examples=200, deadline=None)
def test_rect_kernels_tie_heavy(scalar_fn, vector_fn, sides, metric):
    (lo_a, hi_a), (lo_b, hi_b) = sides
    matrix = vector_fn(lo_a, hi_a, lo_b, hi_b, metric)
    assert matrix.shape == (len(lo_a), len(lo_b))
    for i, a in enumerate(as_mbrs(lo_a, hi_a)):
        for j, b in enumerate(as_mbrs(lo_b, hi_b)):
            assert_tie_heavy_match(
                matrix[i, j], scalar_fn(a, b, metric), metric
            )


@given(sides=tie_heavy_sides(), metric=metrics)
@settings(max_examples=200, deadline=None)
def test_point_kernel_tie_heavy(sides, metric):
    # The low corners of the grid boxes, as point sets.
    (points_a, __), (points_b, __) = sides
    matrix = pairwise_point_distances(points_a, points_b, metric)
    for i, a in enumerate(points_a):
        for j, b in enumerate(points_b):
            assert_tie_heavy_match(
                matrix[i, j], metric.distance(tuple(a), tuple(b)), metric
            )


@given(
    sides=tie_heavy_sides(),
    root_areas=st.tuples(*[st.sampled_from([0.0, 0.75, 4.0])] * 2),
    with_minmax=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_batched_tie_keys_match_per_candidate(
    sides, root_areas, with_minmax, data
):
    (lo_p, hi_p), (lo_q, hi_q) = sides
    # Any subset of the cross product, in any order, repeats allowed.
    cells = [(i, j) for i in range(len(lo_p)) for j in range(len(lo_q))]
    chosen = data.draw(st.lists(st.sampled_from(cells), max_size=12))
    idx_p = np.array([i for i, __ in chosen], dtype=np.intp)
    idx_q = np.array([j for __, j in chosen], dtype=np.intp)
    minmax = (
        pairwise_minmaxdist(lo_p, hi_p, lo_q, hi_q)[idx_p, idx_q]
        if with_minmax else None
    )
    boxes = CandidateBoxes(
        lo_p, hi_p, idx_p, lo_q, hi_q, idx_q, minmax=minmax,
        root_area_p=root_areas[0], root_area_q=root_areas[1],
    )
    mbrs_p, mbrs_q = as_mbrs(lo_p, hi_p), as_mbrs(lo_q, hi_q)
    oracle = [
        CandidateGeometry(
            mbr_p=mbrs_p[i], mbr_q=mbrs_q[j],
            minmax=None if minmax is None else float(minmax[n]),
            root_area_p=root_areas[0], root_area_q=root_areas[1],
        )
        for n, (i, j) in enumerate(chosen)
    ]
    for name, criterion in TIE_CRITERIA.items():
        batched = criterion.keys(boxes).tolist()
        assert batched == [criterion.key(c) for c in oracle], name
    chain = TieBreak.parse(["T5", "T3", "T1", "T4", "T2"])
    assert chain.keys(boxes) == [chain.key(c) for c in oracle]


# ---------------------------------------------------------------------------
# End-to-end: whole queries are identical with the flag on and off.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sequoia_trees():
    workspace_q = overlapping_workspace(UNIT_WORKSPACE, 0.5)
    pts_p = sequoia_like(800, UNIT_WORKSPACE, seed=7)
    pts_q = sequoia_like(800, workspace_q, seed=8)
    return bulk_load(pts_p), bulk_load(pts_q)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("k", [1, 10])
def test_query_parity_scalar_vs_vectorized(sequoia_trees, algorithm, k):
    tree_p, tree_q = sequoia_trees
    results = {}
    for use_vectorized in (True, False):
        request = CPQRequest(
            k=k, algorithm=algorithm, use_vectorized=use_vectorized
        )
        results[use_vectorized] = k_closest_pairs(
            tree_p, tree_q, request=request
        )
    fast, slow = results[True], results[False]
    # Byte-identical pairs: same distances (as bit patterns), same
    # points, same oids, same (tie-break) order.
    assert [
        (p.distance, p.p, p.q, p.p_oid, p.q_oid) for p in fast.pairs
    ] == [
        (p.distance, p.p, p.q, p.p_oid, p.q_oid) for p in slow.pairs
    ]
    # And the same work: identical pruning means identical traversal.
    assert fast.stats.node_pairs_visited == slow.stats.node_pairs_visited
    assert fast.stats.disk_accesses == slow.stats.disk_accesses
    assert (fast.stats.distance_computations
            == slow.stats.distance_computations)


def test_scalar_path_records_scalar_kernels(sequoia_trees):
    tree_p, tree_q = sequoia_trees
    KERNEL_STATS.reset()
    k_closest_pairs(
        tree_p, tree_q,
        request=CPQRequest(k=4, algorithm="heap", use_vectorized=False),
    )
    tallies = KERNEL_STATS.snapshot()
    assert tallies["points_scalar"]["pairs"] > 0
    assert tallies["minmin_scalar"]["pairs"] > 0
    assert "points" not in tallies
    KERNEL_STATS.reset()
    k_closest_pairs(
        tree_p, tree_q,
        request=CPQRequest(k=4, algorithm="heap", use_vectorized=True),
    )
    tallies = KERNEL_STATS.snapshot()
    assert tallies["points"]["pairs"] > 0
    assert tallies["minmin"]["pairs"] > 0
    assert "points_scalar" not in tallies
    KERNEL_STATS.reset()

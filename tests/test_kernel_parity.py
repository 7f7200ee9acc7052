"""The NumPy kernels must agree *bitwise* with the scalar oracle.

The traversal evaluates every pruning metric through the batch kernels
of :mod:`repro.geometry.vectorized`.  The scalar helpers of
:mod:`repro.geometry.metrics` are kept as their oracle: they mirror
the kernels operation for operation (same accumulation order, same
parenthesisation), so their outputs are equal as bit patterns, not
merely to a tolerance.  These tests pin that contract at four levels:

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
* fusion and layout -- the fused node-pair kernel equals the three
  public kernels, every kernel gives the same values on row-major and
  coordinate-major (transposed-view) inputs, including the arrays of
  decoded and lazily built nodes and a fixed side's box, and the
  prefix scan of the K > 1 bound equals a full stable-sort scan.

A query on a SEQUOIA-like sample also checks that the traversal's
kernel calls land in :data:`KERNEL_STATS`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CPQRequest, k_closest_pairs
from repro.core.engine import _kcp_bound_from_maxmax
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
    batch_mindist,
    node_pair_bounds,
    pairwise_maxdist,
    pairwise_mindist,
    pairwise_minmaxdist,
    pairwise_point_distances,
    point_rect_mindist,
)
from repro.rtree.bulk import bulk_load
from repro.rtree.node import Node
from repro.storage.page import PageLayout
from repro.storage.serializer import NodeSerializer

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
# Fusion and layout: one node-pair kernel, row- and column-major inputs.
# ---------------------------------------------------------------------------

def assert_same_matrix(fused, separate, metric):
    assert fused.shape == separate.shape
    for got, want in zip(fused.ravel().tolist(), separate.ravel().tolist()):
        assert_tie_heavy_match(got, want, metric)


@given(sides=st.one_of(two_rect_batches(), tie_heavy_sides()),
       metric=metrics)
@settings(max_examples=200, deadline=None)
def test_fused_bounds_equal_public_kernels(sides, metric):
    (lo_a, hi_a), (lo_b, hi_b) = sides
    before = KERNEL_STATS.snapshot()
    minmin, minmax, maxmax = node_pair_bounds(lo_a, hi_a, lo_b, hi_b,
                                              metric)
    fused = KERNEL_STATS.snapshot()
    assert_same_matrix(minmin, pairwise_mindist(lo_a, hi_a, lo_b, hi_b,
                                                metric), metric)
    assert_same_matrix(minmax, pairwise_minmaxdist(lo_a, hi_a, lo_b, hi_b,
                                                   metric), metric)
    assert_same_matrix(maxmax, pairwise_maxdist(lo_a, hi_a, lo_b, hi_b,
                                                metric), metric)
    separate = KERNEL_STATS.snapshot()
    # The fused call tallies exactly what the three separate calls do.
    for name in ("minmin", "minmax", "maxmax"):
        calls = [snap.get(name, {"calls": 0, "pairs": 0})
                 for snap in (before, fused, separate)]
        assert calls[1]["calls"] - calls[0]["calls"] == 1
        assert (calls[2]["calls"] - calls[1]["calls"]
                == calls[1]["calls"] - calls[0]["calls"])
        assert (calls[2]["pairs"] - calls[1]["pairs"]
                == calls[1]["pairs"] - calls[0]["pairs"] == minmin.size)
    without = node_pair_bounds(lo_a, hi_a, lo_b, hi_b, metric, maxmax=False)
    assert without[2] is None
    assert np.array_equal(without[0], minmin)
    assert np.array_equal(without[1], minmax)


def column_major(array):
    """The same values as a transposed view of a C-contiguous
    ``(k, n)`` array -- the layout R-tree nodes hand out."""
    view = np.ascontiguousarray(array.T).T
    assert view.flags.f_contiguous and array.shape == view.shape
    return view


def all_kernels(lo_a, hi_a, lo_b, hi_b, metric):
    return [
        pairwise_point_distances(lo_a, lo_b, metric),
        pairwise_mindist(lo_a, hi_a, lo_b, hi_b, metric),
        pairwise_maxdist(lo_a, hi_a, lo_b, hi_b, metric),
        pairwise_minmaxdist(lo_a, hi_a, lo_b, hi_b, metric),
        *node_pair_bounds(lo_a, hi_a, lo_b, hi_b, metric),
        point_rect_mindist(lo_a, lo_b, hi_b, metric),
        batch_mindist(lo_a, hi_a, lo_a[::-1], hi_a[::-1], metric),
    ]


def assert_identical(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@given(sides=st.one_of(two_rect_batches(), tie_heavy_sides()),
       metric=metrics)
@settings(max_examples=150, deadline=None)
def test_layouts_give_identical_results(sides, metric):
    (lo_a, hi_a), (lo_b, hi_b) = sides
    rows = all_kernels(lo_a, hi_a, lo_b, hi_b, metric)
    columns = all_kernels(*map(column_major, (lo_a, hi_a, lo_b, hi_b)),
                          metric)
    assert_identical(columns, rows)


@given(sides=st.one_of(two_rect_batches(), tie_heavy_sides()),
       metric=metrics)
@settings(max_examples=100, deadline=None)
def test_node_arrays_match_row_major(sides, metric):
    (lo_a, hi_a), (lo_b, hi_b) = sides
    k = lo_a.shape[1]
    tuples = [(tuple(lo), tuple(hi), child)
              for child, (lo, hi) in enumerate(zip(lo_a.tolist(),
                                                   hi_a.tolist()))]
    lazy = Node.from_tuples(7, 1, tuples)
    serializer = NodeSerializer(PageLayout(dimension=k))
    __, entries, lo, hi = serializer.deserialize_arrays(
        serializer.serialize_internal(1, tuples))
    decoded = Node.from_arrays(7, 1, entries, lo, hi)
    for node in (lazy, decoded):
        assert node.lo_array().tolist() == lo_a.tolist()
        assert node.hi_array().tolist() == hi_a.tolist()
        for bound in (node.lo_array(), node.hi_array()):
            assert bound.T.flags.c_contiguous
        assert_identical(
            all_kernels(node.lo_array(), node.hi_array(), lo_b, hi_b, metric),
            all_kernels(lo_a, hi_a, lo_b, hi_b, metric),
        )
        # A fixed side's (1, k) box.
        box_lo, box_hi = node.box_arrays()
        assert node.box_arrays() is node.box_arrays()
        assert box_lo.tolist() == [list(node.mbr().lo)]
        assert box_hi.tolist() == [list(node.mbr().hi)]
        assert_identical(
            all_kernels(box_lo, box_hi, lo_b, hi_b, metric),
            all_kernels(np.array([node.mbr().lo]), np.array([node.mbr().hi]),
                        lo_b, hi_b, metric),
        )
    # Leaves: one shared coordinate array for both bounds.
    leaf = Node.from_tuples(8, 0, [(tuple(p), i)
                                   for i, p in enumerate(lo_a.tolist())])
    assert leaf.points_array().tolist() == lo_a.tolist()
    assert leaf._lo is leaf._hi
    __, entries, lo, hi = serializer.deserialize_arrays(
        serializer.serialize_leaf(leaf.to_tuples()))
    assert lo is hi and lo.tolist() == lo_a.tolist()
    # A decoded node keeps the decoded array; it copies nothing.
    assert np.shares_memory(
        Node.from_arrays(8, 0, entries, lo, hi).lo_array(), lo)


def full_scan_bound(minmax, maxmax, counts, k):
    """Reference K > 1 bound: one stable sort of every guarantee."""
    values = np.concatenate([minmax, maxmax])
    weights = np.concatenate(
        [np.ones_like(minmax), np.maximum(counts - 1.0, 0.0)]
    )
    order = np.argsort(values, kind="stable")
    position = int(np.searchsorted(np.cumsum(weights[order]), k))
    if position >= len(values):
        return float("inf")
    return float(values[order][position])


@st.composite
def bound_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    value = st.one_of(grid_coord.map(abs), coord.map(abs))
    minmax = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    extra = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    # Occupancy products, as _guaranteed_points builds them.
    level = st.sampled_from([1.0, 2.0, 3.0, 4.0, 7.0, 49.0, 2401.0])
    counts = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    k = draw(st.integers(min_value=1, max_value=3000))
    # The traversal's MAXMAXDIST never undercuts its MINMAXDIST, but
    # the bound must not rely on it.
    maxmax = minmax + extra if draw(st.booleans()) else extra
    return minmax, maxmax, counts, k


@given(args=bound_inputs())
# Candidates at the cut that carry no weight: the prefix falls short.
@example(args=(np.array([5.0, 5.0]), np.array([1.0, 2.0]),
               np.array([1.0, 1.0]), 1))
@settings(max_examples=300, deadline=None)
def test_kcp_bound_equals_full_scan(args):
    assert _kcp_bound_from_maxmax(*args) == full_scan_bound(*args)


# ---------------------------------------------------------------------------
# Query level: the traversal's kernel calls are tallied.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sequoia_trees():
    workspace_q = overlapping_workspace(UNIT_WORKSPACE, 0.5)
    pts_p = sequoia_like(800, UNIT_WORKSPACE, seed=7)
    pts_q = sequoia_like(800, workspace_q, seed=8)
    return bulk_load(pts_p), bulk_load(pts_q)


def test_query_records_kernel_tallies(sequoia_trees):
    tree_p, tree_q = sequoia_trees
    KERNEL_STATS.reset()
    k_closest_pairs(
        tree_p, tree_q, request=CPQRequest(k=4, algorithm="heap"),
    )
    tallies = KERNEL_STATS.snapshot()
    assert tallies["points"]["pairs"] > 0
    assert tallies["minmin"]["pairs"] > 0
    KERNEL_STATS.reset()

"""Unit tests for the shared CPQ engine internals."""

import math

import numpy as np
import pytest

from repro.core.engine import (
    CPQContext,
    CPQOptions,
    _guaranteed_points,
    _kcp_bound_from_maxmax,
    generate_candidates,
    order_candidates,
)
from repro.rtree.bulk import bulk_load


class TestKCPBound:
    def test_first_guarantee_is_minmax(self):
        # K = 1 accumulates one pair: the smallest MINMAXDIST.
        bound = _kcp_bound_from_maxmax(
            minmax=np.array([3.0, 5.0]),
            maxmax=np.array([10.0, 12.0]),
            counts=np.array([4.0, 4.0]),
            k=1,
        )
        assert bound == 3.0

    def test_accumulates_counts(self):
        # Guarantees sorted: (3.0, 1), (5.0, 1), (10.0, 3), (12.0, 3).
        bound = _kcp_bound_from_maxmax(
            minmax=np.array([3.0, 5.0]),
            maxmax=np.array([10.0, 12.0]),
            counts=np.array([4.0, 4.0]),
            k=5,
        )
        assert bound == 10.0

    def test_k_beyond_total_is_infinite(self):
        bound = _kcp_bound_from_maxmax(
            minmax=np.array([1.0]),
            maxmax=np.array([2.0]),
            counts=np.array([3.0]),
            k=100,
        )
        assert bound == math.inf

    def test_exact_boundary(self):
        # cumulative = [1, 2] -> k = 2 is covered by the second value.
        bound = _kcp_bound_from_maxmax(
            minmax=np.array([1.0]),
            maxmax=np.array([7.0]),
            counts=np.array([2.0]),
            k=2,
        )
        assert bound == 7.0


class TestGuaranteedPoints:
    def test_children_of_internal_node(self):
        points = [(float(i) / 100, float(i % 10) / 10) for i in range(300)]
        tree = bulk_load(points)
        root = tree.read_root()
        assert not root.is_leaf
        counts = _guaranteed_points(tree, root, expanded=True)
        assert len(counts) == len(root.entries)
        # children at level root.level - 1 hold >= m ** root.level points
        assert np.all(counts == tree.min_entries ** root.level)
        # the guarantee must actually hold
        for entry in root.entries:
            child = tree.read_node(entry.child_id)
            total = sum(1 for __ in _leaf_points(tree, child))
            assert total >= counts[0]

    def test_fixed_root_guarantee(self):
        points = [(float(i), 0.0) for i in range(50)]
        tree = bulk_load(points)
        root = tree.read_root()
        counts = _guaranteed_points(tree, root, expanded=False)
        assert counts.shape == (1,)
        assert counts[0] <= len(points)


def _leaf_points(tree, node):
    if node.is_leaf:
        yield from node.entries
        return
    for entry in node.entries:
        yield from _leaf_points(tree, tree.read_node(entry.child_id))


class TestCandidateGeneration:
    @pytest.fixture
    def context(self):
        p = bulk_load([(i / 60.0, (i % 8) / 8.0) for i in range(360)])
        q = bulk_load([(0.5 + i / 60.0, (i % 8) / 8.0) for i in range(360)])
        return CPQContext(p, q, k=1)

    def test_no_prune_keeps_every_pair(self, context):
        options = CPQOptions(prune=False, update_bound=False)
        candidates = generate_candidates(
            context, context.root_p, context.root_q, options
        )
        expected = len(context.root_p.entries) * len(context.root_q.entries)
        assert len(candidates) == expected

    def test_prune_respects_bound(self, context):
        context.bound = 0.0  # only MINMINDIST == 0 pairs survive
        options = CPQOptions(prune=True, update_bound=False)
        candidates = generate_candidates(
            context, context.root_p, context.root_q, options
        )
        assert np.all(candidates.minmin <= 0.0)

    def test_update_bound_tightens_t(self, context):
        assert context.t == math.inf
        options = CPQOptions(prune=True, update_bound=True)
        generate_candidates(
            context, context.root_p, context.root_q, options
        )
        assert context.t < math.inf

    def test_sorted_order_is_ascending(self, context):
        options = CPQOptions(prune=False, update_bound=True, sort=True)
        candidates = generate_candidates(
            context, context.root_p, context.root_q, options
        )
        order = order_candidates(context, candidates, options)
        values = candidates.minmin[order]
        assert np.all(np.diff(values) >= 0)

    def test_unsorted_order_is_natural(self, context):
        options = CPQOptions(prune=False, update_bound=False, sort=False)
        candidates = generate_candidates(
            context, context.root_p, context.root_q, options
        )
        order = order_candidates(context, candidates, options)
        assert list(order) == list(range(len(candidates)))

    def test_dimension_mismatch_rejected(self):
        from repro.rtree.tree import RTree, RTreeConfig
        from repro.storage.page import PageLayout

        p = bulk_load([(0.0, 0.0)])
        q3 = RTree(RTreeConfig(layout=PageLayout(dimension=3)))
        with pytest.raises(ValueError):
            CPQContext(p, q3, k=1)


class TestLeafTies:
    """A K = 1 answer is the canonical pair among those tied at the
    minimum distance, whatever the entry order inside a leaf."""

    @pytest.mark.parametrize("algorithm",
                             ["naive", "exh", "sim", "std", "heap"])
    @pytest.mark.parametrize("q_points", [
        [(0.0, 1.0), (0.0, -1.0)],
        [(0.0, -1.0), (0.0, 1.0)],
    ], ids=["up_first", "down_first"])
    def test_k1_is_first_pair_of_k2(self, algorithm, q_points):
        from repro.core import CPQRequest, k_closest_pairs

        p = bulk_load([(0.0, 0.0)])
        q = bulk_load(q_points)
        best = k_closest_pairs(p, q, request=CPQRequest(
            k=1, algorithm=algorithm)).pairs
        both = k_closest_pairs(p, q, request=CPQRequest(
            k=2, algorithm=algorithm)).pairs
        assert best == both[:1]
        assert best[0].q == (0.0, -1.0)

"""Tests for the Hjaltason & Samet incremental distance join."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental import incremental_distance_join, k_distance_join
from repro.incremental.distance_join import POLICIES, TIE_POLICIES
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree
from repro.storage.stats import QueryStats

from tests.conftest import brute_force_pairs

coord = st.floats(min_value=0, max_value=50, allow_nan=False)
point_lists = st.lists(st.tuples(coord, coord), min_size=1, max_size=30)


class TestCorrectness:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("tie_policy", TIE_POLICIES)
    def test_matches_brute_force(self, policy, tie_policy):
        rng = random.Random(23)
        pts_p = [(rng.random(), rng.random()) for __ in range(150)]
        pts_q = [(rng.uniform(0.3, 1.3), rng.random()) for __ in range(140)]
        tree_p = bulk_load(pts_p)
        tree_q = bulk_load(pts_q)
        result = k_distance_join(
            tree_p, tree_q, k=25, policy=policy, tie_policy=tie_policy
        )
        expected = brute_force_pairs(pts_p, pts_q, 25)
        assert result.distances() == pytest.approx(expected, abs=1e-9)

    @given(point_lists, point_lists, st.integers(1, 8))
    @settings(max_examples=15)
    def test_random_sets(self, pts_p, pts_q, k):
        k = min(k, len(pts_p) * len(pts_q))
        result = k_distance_join(
            bulk_load(pts_p), bulk_load(pts_q), k=k
        )
        expected = brute_force_pairs(pts_p, pts_q, k)
        assert result.distances() == pytest.approx(expected, abs=1e-9)

    def test_agrees_with_non_incremental(self):
        from repro.core import CPQRequest, k_closest_pairs

        rng = random.Random(8)
        pts_p = [(rng.random(), rng.random()) for __ in range(200)]
        pts_q = [(rng.random(), rng.random()) for __ in range(200)]
        tree_p = bulk_load(pts_p)
        tree_q = bulk_load(pts_q)
        ours = k_closest_pairs(
            tree_p,
            tree_q,
            request=CPQRequest(k=30, algorithm="heap"),
        )
        theirs = k_distance_join(tree_p, tree_q, k=30, policy="sml")
        assert theirs.distances() == pytest.approx(
            ours.distances(), abs=1e-9
        )


class TestIncrementality:
    def test_ascending_order(self):
        rng = random.Random(4)
        pts = [(rng.random(), rng.random()) for __ in range(120)]
        it = incremental_distance_join(bulk_load(pts), bulk_load(pts))
        previous = -1.0
        for __, pair in zip(range(200), it):
            assert pair.distance >= previous
            previous = pair.distance

    def test_lazy_consumption_costs_less(self):
        rng = random.Random(16)
        pts_p = [(rng.random(), rng.random()) for __ in range(800)]
        pts_q = [(rng.random(), rng.random()) for __ in range(800)]
        tree_p = bulk_load(pts_p)
        tree_q = bulk_load(pts_q)

        tree_p.file.reset_for_query()
        tree_q.file.reset_for_query()
        few_stats = QueryStats()
        it = incremental_distance_join(tree_p, tree_q, stats=few_stats)
        for __ in range(3):
            next(it)
        few = few_stats.disk_accesses

        many = k_distance_join(tree_p, tree_q, k=2000).stats.disk_accesses
        assert 0 < few < many

    def test_exhausts_all_pairs_without_bound(self):
        pts_p = [(0.0, 0.0), (1.0, 0.0)]
        pts_q = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
        pairs = list(
            incremental_distance_join(bulk_load(pts_p), bulk_load(pts_q))
        )
        assert len(pairs) == 6

    def test_k_bound_stops_early(self):
        pts = [(float(i), 0.0) for i in range(10)]
        pairs = list(
            incremental_distance_join(
                bulk_load(pts), bulk_load(pts), k_bound=5
            )
        )
        assert len(pairs) == 5


class TestValidation:
    def test_unknown_policy(self):
        tree = bulk_load([(0.0, 0.0)])
        with pytest.raises(ValueError, match="policy"):
            list(incremental_distance_join(tree, tree, policy="zigzag"))

    def test_unknown_tie_policy(self):
        tree = bulk_load([(0.0, 0.0)])
        with pytest.raises(ValueError, match="tie policy"):
            list(
                incremental_distance_join(tree, tree, tie_policy="random")
            )

    def test_bad_k_bound(self):
        tree = bulk_load([(0.0, 0.0)])
        with pytest.raises(ValueError, match="k_bound"):
            list(incremental_distance_join(tree, tree, k_bound=0))

    def test_bad_k(self):
        tree = bulk_load([(0.0, 0.0)])
        with pytest.raises(ValueError, match="k must be"):
            k_distance_join(tree, tree, k=0)

    def test_empty_tree_yields_nothing(self):
        empty = RTree()
        other = bulk_load([(0.0, 0.0)])
        assert list(incremental_distance_join(empty, other)) == []
        assert k_distance_join(empty, other, k=3).pairs == []


class TestQueueBehaviour:
    def test_queue_grows_beyond_result_size(self):
        # Section 3.9: the incremental queue holds object pairs too,
        # so it dwarfs the K results and the HEAP algorithm's queue.
        rng = random.Random(6)
        pts = [(rng.random(), rng.random()) for __ in range(600)]
        tree_p = bulk_load(pts)
        tree_q = bulk_load([(x + 1e-6, y) for x, y in pts])
        result = k_distance_join(tree_p, tree_q, k=10, policy="sml")
        assert result.stats.max_queue_size > 10
        assert result.stats.queue_inserts >= result.stats.max_queue_size

    def test_stats_collected_through_iterator(self):
        rng = random.Random(7)
        pts = [(rng.random(), rng.random()) for __ in range(200)]
        stats = QueryStats()
        tree_p = bulk_load(pts)
        tree_q = bulk_load(pts)
        tree_p.file.reset_for_query()
        tree_q.file.reset_for_query()
        list(
            incremental_distance_join(
                tree_p, tree_q, k_bound=5, stats=stats
            )
        )
        assert stats.disk_accesses > 0
        assert stats.node_pairs_visited > 0


class TestRegistryRunner:
    @pytest.mark.parametrize("algorithm", ["incremental", "heap", "semi"])
    def test_reports_every_page_the_trees_read(self, algorithm):
        """The registry's ``incremental`` counts from the query's start,
        root reads included, like every other runner."""
        from repro.core.api import CPQRequest, k_closest_pairs

        rng = random.Random(11)
        tree_p, tree_q = (
            bulk_load([(rng.random(), rng.random()) for __ in range(3000)])
            for __ in range(2)
        )
        result = k_closest_pairs(tree_p, tree_q, CPQRequest(
            k=10, algorithm=algorithm, buffer_pages=0))
        read = tree_p.stats.disk_reads + tree_q.stats.disk_reads
        assert result.stats.disk_accesses == read > 0

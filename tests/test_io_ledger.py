"""One I/O ledger per query: every disk-access figure is a delta.

A tree's :class:`~repro.storage.stats.IOStats` counts for its lifetime;
a query's ``stats.disk_accesses`` / ``buffer_hits`` are the reads since
the query opened its ledger (:meth:`QueryStats.count_io`), whatever the
trees read before and however often the result is settled.
"""

import random

import pytest

from repro.core.api import CPQRequest, k_closest_pairs
from repro.extensions import multiway_closest_tuples, semi_closest_pairs
from repro.incremental import k_distance_join
from repro.query import distance_range_join
from repro.rtree.bulk import bulk_load
from repro.service import CPQRequest as ServiceCPQ
from repro.service import QueryService
from repro.storage.stats import QueryStats


def _points(n, seed):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for __ in range(n)]


def _read(*trees):
    """Disk reads of the distinct trees' counters, summed."""
    return sum({id(t.stats): t.stats.disk_reads for t in trees}.values())


@pytest.fixture()
def warm_trees():
    """Two trees whose counters already hold earlier queries' reads."""
    tree_p = bulk_load(_points(1500, seed=21))
    tree_q = bulk_load(_points(1500, seed=22))
    for __ in range(2):
        k_closest_pairs(tree_p, tree_q, CPQRequest(
            k=5, buffer_pages=16, reset_stats=False))
    assert tree_p.stats.disk_reads > 0 and tree_q.stats.disk_reads > 0
    return tree_p, tree_q


class TestStandaloneEntryPoints:
    def test_semi_reports_only_this_calls_reads(self, warm_trees):
        tree_p, tree_q = warm_trees
        before = _read(tree_p, tree_q)
        warm = k_closest_pairs(tree_p, tree_q, CPQRequest(
            algorithm="semi", reset_stats=False))
        assert warm.stats.disk_accesses == _read(tree_p, tree_q) - before
        cold = semi_closest_pairs(tree_p, tree_q)
        assert cold.stats.disk_accesses == _read(tree_p, tree_q) > 0

    def test_distance_range_join_reports_only_this_calls_reads(
        self, warm_trees
    ):
        tree_p, tree_q = warm_trees
        before = _read(tree_p, tree_q)
        stats = QueryStats()
        pairs = distance_range_join(tree_p, tree_q, 0.01, stats=stats)
        assert pairs
        assert stats.disk_accesses == _read(tree_p, tree_q) - before > 0

    def test_multiway_reports_only_this_calls_reads(self, warm_trees):
        tree_p, tree_q = warm_trees
        result = multiway_closest_tuples([tree_p, tree_q, tree_p], k=3)
        assert result.stats.disk_accesses == _read(tree_p, tree_q) > 0

    def test_repeated_settles_count_nothing_twice(self, warm_trees):
        from repro.core.engine import CPQContext

        tree_p, tree_q = warm_trees
        ctx = CPQContext(tree_p, tree_q, k=1)
        first = ctx.result("HEAP").stats.disk_accesses
        assert ctx.result("HEAP").stats.disk_accesses == first


class TestKDistanceJoinBuffer:
    def test_shared_tree_gets_the_whole_buffer(self):
        tree = bulk_load(_points(800, seed=3))
        other = bulk_load(_points(800, seed=4))
        k_distance_join(tree, tree, k=5, buffer_pages=16)
        assert tree.file.buffer.capacity == 16
        k_distance_join(tree, other, k=5, buffer_pages=16)
        assert tree.file.buffer.capacity == other.file.buffer.capacity == 8


class TestServiceAnswers:
    @pytest.mark.parametrize(
        "algorithm", ["heap", "std", "semi", "incremental", "self"]
    )
    def test_second_uncached_query_reports_its_own_reads(self, algorithm):
        tree_p = bulk_load(_points(1200, seed=5))
        tree_q = (tree_p if algorithm == "self"
                  else bulk_load(_points(1200, seed=6)))
        with QueryService(workers=1) as service:
            service.register_pair("pq", tree_p, tree_q)
            for __ in range(2):
                response = service.execute(ServiceCPQ(
                    pair="pq", k=5, algorithm=algorithm, use_cache=False))
                assert response.ok, response.error
                assert not response.cached
                stats = response.result.stats
                assert stats.disk_accesses == response.disk_reads
                assert stats.buffer_hits == response.buffer_hits

    def test_parallel_query_reports_the_trees_delta(self):
        tree_p = bulk_load(_points(2000, seed=7))
        tree_q = bulk_load(_points(2000, seed=8))
        for tree in (tree_p, tree_q):
            tree.file.read_latency = 0.0001
        with QueryService(workers=1, max_query_workers=2) as service:
            service.register_pair("pq", tree_p, tree_q)
            for __ in range(2):
                before = _read(tree_p, tree_q)
                response = service.execute(ServiceCPQ(
                    pair="pq", k=10, algorithm="heap", workers=2,
                    use_cache=False))
                assert response.ok, response.error
                stats = response.result.stats
                assert stats.extra["parallel"]["workers"] == 2
                assert (stats.disk_accesses
                        == _read(tree_p, tree_q) - before
                        == response.disk_reads)

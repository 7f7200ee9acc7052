"""Self-join as a mode of the engine's HEAP, and a tree shared by both
sides of a query counted once.

``self`` must give the canonical answer of a brute-force scan over the
distinct unordered pairs of one point set, tie order included, on
every index kind, metric and buffer size; the CPQL statement ``FROM a``
is that self-join; and a tree serving both sides reports each of its
page reads once, in the stats, the trace and the service response.
"""

import random

import numpy as np
import pytest

from repro.catalog import Catalog
from repro.core import CPQRequest, k_closest_pairs
from repro.core.result import ClosestPair
from repro.geometry.minkowski import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.geometry.vectorized import pairwise_point_distances
from repro.incremental import incremental_distance_join
from repro.obs import Tracer
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree, RTreeConfig
from repro.service import CPQRequest as ServiceRequest
from repro.service import STATUS_BAD_REQUEST, STATUS_OK, QueryService
from repro.storage.page import PageLayout
from repro.storage.stats import QueryStats


def _dataset(shape, n, d, seed):
    rng = random.Random(seed)
    if shape == "uniform":
        return [tuple(rng.random() for __ in range(d)) for __ in range(n)]
    if shape == "duplicates":
        base = [tuple(rng.random() for __ in range(d))
                for __ in range(n // 4)]
        return [rng.choice(base) for __ in range(n)]
    # Grid: integer coordinates, so equal distances abound.
    side = max(2, round(n ** (1 / d)))
    return [tuple(float(rng.randrange(side)) for __ in range(d))
            for __ in range(n)]


def _tree(points, d, kind):
    config = RTreeConfig(layout=PageLayout(page_size=1024, dimension=d))
    if kind == "str":
        return bulk_load(points, config=config)
    tree = RTree(config)
    tree.insert_many(points)
    return tree


def _brute_self(points, k, metric):
    """The K canonically smallest distinct pairs, oriented p_oid < q_oid,
    with distances from the engine's own point kernel."""
    array = np.array(points, dtype=float)
    distances = pairwise_point_distances(array, array, metric)
    pairs = sorted(
        ClosestPair(float(distances[i, j]), points[i], points[j], i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )
    return pairs[:k]


class TestSelfMatchesBruteForce:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("shape", ["uniform", "duplicates", "grid"])
    @pytest.mark.parametrize("kind", ["str", "dynamic"])
    def test_sweep(self, d, shape, kind):
        points = _dataset(shape, 160, d, seed=d * 7 + len(shape))
        tree = _tree(points, d, kind)
        for metric in (MANHATTAN, EUCLIDEAN, CHEBYSHEV):
            for k in (1, 2, 5, 100):
                expected = _brute_self(points, k, metric)
                for buffer_pages in (0, 16):
                    result = k_closest_pairs(tree, tree, CPQRequest(
                        k=k, algorithm="self", metric=metric,
                        buffer_pages=buffer_pages,
                    ))
                    assert result.pairs == expected, (metric, k,
                                                      buffer_pages)

    def test_two_trees_are_refused(self):
        tree = bulk_load([(0.0, 0.0), (1.0, 1.0)])
        other = bulk_load([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="same tree"):
            k_closest_pairs(tree, other, CPQRequest(algorithm="self"))

    def test_explicit_tie_break_keeps_the_answer(self):
        points = _dataset("grid", 300, 2, seed=11)
        tree = bulk_load(points)
        default = k_closest_pairs(tree, tree, CPQRequest(
            k=40, algorithm="self"))
        t1 = k_closest_pairs(tree, tree, CPQRequest(
            k=40, algorithm="self", tie_break="T1"))
        assert t1.pairs == default.pairs == _brute_self(points, 40,
                                                        EUCLIDEAN)


def _points(n, seed):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for __ in range(n)]


class TestSharedTreeCountedOnce:
    @pytest.mark.parametrize("algorithm", ["heap", "self", "semi"])
    def test_stats_match_the_tree_counters(self, algorithm):
        tree = bulk_load(_points(3000, seed=8))
        result = k_closest_pairs(tree, tree, CPQRequest(
            k=10, algorithm=algorithm, buffer_pages=16))
        assert result.stats.disk_accesses == tree.stats.disk_reads > 0
        assert result.stats.buffer_hits == tree.stats.buffer_hits

    def test_shared_tree_gets_the_whole_buffer(self):
        tree = bulk_load(_points(3000, seed=8))
        other = bulk_load(_points(3000, seed=9))
        k_closest_pairs(tree, tree, CPQRequest(
            k=10, algorithm="self", buffer_pages=16))
        assert tree.file.buffer.capacity == 16
        k_closest_pairs(tree, other, CPQRequest(k=10, buffer_pages=16))
        assert tree.file.buffer.capacity == other.file.buffer.capacity == 8

    def test_incremental_join_counts_once(self):
        tree = bulk_load(_points(3000, seed=8))
        tree.file.set_buffer_capacity(8)
        tree.file.reset_for_query()
        stats = QueryStats()
        pairs = list(incremental_distance_join(tree, tree, k_bound=10,
                                               stats=stats))
        assert len(pairs) == 10
        assert stats.disk_accesses == tree.stats.disk_reads > 0
        assert stats.buffer_hits == tree.stats.buffer_hits

    def test_trace_has_one_io_leaf(self):
        tree = bulk_load(_points(3000, seed=8))
        tracer = Tracer()
        result = k_closest_pairs(tree, tree, CPQRequest(
            k=10, algorithm="self", buffer_pages=16), tracer=tracer)
        traverse = tracer.pop_traces()[-1].find("traverse")
        leaves = [c for c in traverse.children if c.name.startswith("io.")]
        assert [leaf.name for leaf in leaves] == ["io.p"]
        assert leaves[0].attrs["disk_reads"] == result.stats.disk_accesses

    def test_service_response_counts_once(self):
        tree = bulk_load(_points(2000, seed=9))
        service = QueryService(workers=1, cache_size=0)
        service.register_pair("solo", tree, tree)
        try:
            response = service.execute(ServiceRequest(
                pair="solo", k=5, algorithm="self", use_cache=False))
        finally:
            service.close()
        assert response.status == STATUS_OK
        assert response.disk_reads == response.result.stats.disk_accesses


class TestCpqlSingleDataset:
    @pytest.fixture
    def service(self, tmp_path):
        catalog = Catalog(str(tmp_path))
        catalog.register_dataset("parks", _points(400, seed=4), kind="str")
        service = QueryService(workers=1, cache_size=0)
        service.attach_catalog(catalog)
        yield service
        service.close()

    def test_from_one_name_is_the_self_join(self, service):
        auto = service.execute_sql("SELECT CLOSEST PAIRS K 5 FROM parks")
        forced = service.execute_sql(
            "SELECT CLOSEST PAIRS K 5 FROM parks USING self")
        assert auto.status == forced.status == STATUS_OK
        assert auto.algorithm == "self"
        assert auto.result.pairs == forced.result.pairs
        assert all(p.p_oid < p.q_oid for p in auto.result.pairs)

    def test_constrained_self_join_is_a_bad_request(self, service):
        response = service.execute_sql(
            "SELECT CLOSEST PAIRS K 5 FROM parks "
            "WHERE RANGE (0.1, 0.1, 0.6, 0.6)")
        assert response.status == STATUS_BAD_REQUEST
        assert "self" in response.error

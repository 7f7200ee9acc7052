"""The parallel partitioned executor's one promise: byte-identical
results.

``parallel_k_closest_pairs`` must return exactly the pairs -- values
AND tie order -- that the serial executor returns, for every algorithm,
worker count and partition depth.  The suite checks that promise on
clustered (SEQUOIA-like) samples and on adversarial
all-equal-distance data where any tie-break slip shows; plus the
supporting machinery (SharedBound, request validation, deadline
propagation).
"""

import math
import random

import pytest

from repro.core.api import CPQRequest, DeadlineExceeded, k_closest_pairs
from repro.core.parallel import SharedBound, parallel_k_closest_pairs
from repro.core.result import ClosestPair
from repro.datasets import sequoia_like
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree

ALGORITHMS = ("naive", "exh", "sim", "std", "heap")


def _sequoia_trees(n=350, seeds=(2000, 2001)):
    return tuple(
        bulk_load([tuple(p) for p in sequoia_like(n, seed=seed)])
        for seed in seeds
    )


class TestThreadParity:
    @pytest.fixture(scope="class")
    def trees(self):
        return _sequoia_trees()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_identical_to_serial(self, trees, algorithm, workers, depth):
        tree_p, tree_q = trees
        serial = k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=10, algorithm=algorithm),
        )
        parallel = k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(
                k=10, algorithm=algorithm,
                workers=workers, partition_depth=depth,
            ),
        )
        # Not just equal distances: identical pairs in identical order.
        assert parallel.pairs == serial.pairs
        assert parallel.algorithm == serial.algorithm

    def test_workers_do_not_change_cache_key(self):
        base = CPQRequest(k=5, algorithm="heap")
        parallel = CPQRequest(k=5, algorithm="heap", workers=8,
                              partition_depth=2)
        assert base.cache_key() == parallel.cache_key()

    def test_worker_count_beyond_tasks(self, trees):
        # More workers than partition tasks must degrade gracefully.
        tree_p, tree_q = trees
        serial = k_closest_pairs(
            tree_p, tree_q, request=CPQRequest(k=3, algorithm="heap")
        )
        parallel = k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=3, algorithm="heap", workers=64),
        )
        assert parallel.pairs == serial.pairs

    def test_empty_tree(self):
        empty = RTree()
        other = bulk_load([(0.0, 0.0)])
        result = k_closest_pairs(
            empty, other, request=CPQRequest(k=1, algorithm="heap",
                                             workers=4),
        )
        assert result.pairs == []

    def test_parallel_stats_recorded(self, trees):
        tree_p, tree_q = trees
        result = k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=5, algorithm="heap", workers=2),
        )
        info = result.stats.extra["parallel"]
        assert info["mode"] == "thread"
        assert info["workers"] == 2
        assert info["tasks"] >= 1
        assert (info["tasks_completed"] + info["tasks_skipped"]
                == info["tasks"])


class TestAdversarialTies:
    """Every candidate pair at the same distance: tie order is the
    whole answer, so any divergence between executors is visible."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("depth", [1, 2])
    def test_all_equal_distances(self, algorithm, depth):
        tree_p = bulk_load([(0.0, 0.0)] * 60)
        tree_q = bulk_load([(1.0, 0.0)] * 60)
        serial = k_closest_pairs(
            tree_p, tree_q, request=CPQRequest(k=25, algorithm=algorithm)
        )
        parallel = k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=25, algorithm=algorithm, workers=4,
                               partition_depth=depth),
        )
        assert serial.distances() == [1.0] * 25
        assert parallel.pairs == serial.pairs

    @pytest.mark.parametrize("algorithm", ["heap", "std"])
    def test_coincident_grids(self, algorithm):
        grid = [(float(i), float(j)) for i in range(8) for j in range(8)]
        tree_p = bulk_load(grid)
        tree_q = bulk_load(grid)
        serial = k_closest_pairs(
            tree_p, tree_q, request=CPQRequest(k=40, algorithm=algorithm)
        )
        parallel = k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=40, algorithm=algorithm, workers=8,
                               partition_depth=2),
        )
        assert parallel.pairs == serial.pairs


class TestSharedBound:
    def _pairs(self, *distances):
        return [
            ClosestPair(d, (d, 0.0), (0.0, 0.0), i, i)
            for i, d in enumerate(distances)
        ]

    def test_starts_at_initial(self):
        shared = SharedBound(k=2, initial=5.0)
        assert shared.z == 5.0

    def test_kth_of_merged_snapshots(self):
        shared = SharedBound(k=3)
        shared.publish(0, self._pairs(1.0, 2.0))
        assert shared.z == math.inf  # only two pairs known
        shared.publish(1, self._pairs(3.0, 4.0))
        assert shared.z == 3.0

    def test_republish_replaces_not_appends(self):
        # A worker re-publishing a tighter snapshot must not leave its
        # old pairs in the merge (double-counting would understate the
        # K-th distance and prune true results).
        shared = SharedBound(k=3)
        shared.publish(0, self._pairs(1.0, 2.0, 9.0))
        assert shared.z == 9.0
        shared.publish(0, self._pairs(1.0, 2.0, 8.0))
        assert shared.z == 8.0
        # k=3 with only 3 live pairs: z is their max, not the 3rd of 6.
        shared.publish(0, self._pairs(1.0, 2.0))
        assert shared.z == math.inf

    def test_metric_bound_folds_in(self):
        shared = SharedBound(k=1)
        shared.publish(0, [], metric_bound=4.0)
        assert shared.z == 4.0
        shared.publish(1, self._pairs(6.0))
        assert shared.z == 4.0  # metric bound stays the tighter one
        shared.publish(1, self._pairs(2.5))
        assert shared.z == 2.5


class TestRequestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            CPQRequest(workers=0)

    def test_partition_depth_restricted(self):
        with pytest.raises(ValueError, match="partition_depth"):
            CPQRequest(partition_depth=3)


class TestCancellation:
    def test_deadline_propagates_from_workers(self):
        tree_p, tree_q = _sequoia_trees(n=300)

        calls = [0]

        def probe():
            calls[0] += 1
            if calls[0] > 5:
                raise DeadlineExceeded()

        with pytest.raises(DeadlineExceeded):
            parallel_k_closest_pairs(
                tree_p, tree_q,
                CPQRequest(k=10, algorithm="heap", workers=4),
                cancel_check=probe,
            )

    def test_expired_deadline_via_request(self):
        tree_p, tree_q = _sequoia_trees(n=300)
        with pytest.raises(DeadlineExceeded):
            k_closest_pairs(
                tree_p, tree_q,
                request=CPQRequest(k=10, algorithm="heap", workers=4,
                                   deadline_ms=1e-6),
            )


class TestTracing:
    def test_worker_spans_under_traverse(self):
        from repro.obs import Tracer

        tree_p, tree_q = _sequoia_trees(n=300)
        tracer = Tracer()
        k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=5, algorithm="heap", workers=2),
            tracer=tracer,
        )
        trace = tracer.pop_traces()[-1]
        traverse = trace if trace.name == "traverse" else next(
            s for s in trace.walk() if s.name == "traverse"
        )
        workers = [s for s in traverse.children if s.name == "worker"]
        assert len(workers) == 2
        for span in workers:
            assert "tasks_completed" in span.attrs
            assert span.attrs["pairs"] >= 0

"""Leaf-pair runs: one stacked point kernel, serial I/O and offers.

Step CP3 computes the point distances of a run of leaf pairs in one
batched :func:`pairwise_point_distances` call (a :class:`LeafRun`),
while every pair is still visited in the serial order with its own T
re-check, page reads, cancellation probe and K-heap offers.  These
tests pin that contract:

* the batched kernel, and a ragged run's padded slices, are bitwise
  equal to the per-pair kernel for p in {1, 2, 3, inf}, d in {2, 3};
* a tree reopened cold (empty decoded-node cache, so runs shrink to
  what the query itself decoded) gives the answers and counters of a
  warm one;
* a HEAP query that ends inside a run renders the ``explain
  --no-times`` text recorded before runs existed;
* a cancellation probe raising on its n-th call stops the query after
  the page reads recorded before runs existed.
"""

from __future__ import annotations

import contextlib
import io
import math
import types

import numpy as np
import pytest

import repro.core.heap as heap_module
from repro.catalog import open_tree, write_sidecar
from repro.cli import main
from repro.core import CPQRequest, k_closest_pairs
from repro.core.api import CORE_ALGORITHMS
from repro.core.constraints import ColorSpec, RangeSpec
from repro.core.engine import LeafRun
from repro.datasets import sequoia_like, uniform_points
from repro.datasets.io import save_points
from repro.geometry.minkowski import MinkowskiMetric
from repro.geometry.vectorized import pairwise_point_distances
from repro.rtree.bulk import bulk_load
from repro.rtree.entries import LeafEntry
from repro.rtree.node import Node
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore

METRICS = [MinkowskiMetric(p) for p in (1.0, 2.0, 3.0, math.inf)]
#: Leaf sizes: a singleton, the STR-packed 10 and 14, a full M = 21.
SIZES = (1, 10, 14, 21)


def _record(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name``; the returned list collects each call's
    result."""
    results = []
    original = getattr(owner, name)

    def wrapper(*args):
        result = original(*args)
        results.append(result)
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return results


def _columns(rng, n: int, d: int, grid: bool) -> np.ndarray:
    """One leaf's C-contiguous ``(d, n)`` coordinates; ``grid`` draws
    from a quarter grid, so many distances tie exactly."""
    if grid:
        return rng.integers(0, 8, (d, n)) / 4.0
    return rng.random((d, n))


@pytest.mark.parametrize("grid", (False, True), ids=("random", "grid"))
@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"p={m.p}")
def test_batched_kernel_is_bitwise_per_pair(metric, d, grid):
    rng = np.random.default_rng(11)
    for n in SIZES:
        for m in SIZES:
            cols_a = [_columns(rng, n, d, grid) for __ in range(5)]
            cols_b = [_columns(rng, m, d, grid) for __ in range(5)]
            batch = pairwise_point_distances(
                np.stack(cols_a, axis=1).transpose(1, 2, 0),
                np.stack(cols_b, axis=1).transpose(1, 2, 0),
                metric,
            )
            assert batch.shape == (5, n, m)
            for i, (a, b) in enumerate(zip(cols_a, cols_b)):
                single = pairwise_point_distances(a.T, b.T, metric)
                assert batch[i].tobytes() == single.tobytes()


def _leaf(columns: np.ndarray) -> Node:
    return Node(0, 0, [LeafEntry(tuple(point), oid)
                       for oid, point in enumerate(columns.T.tolist())])


@pytest.mark.parametrize("grid", (False, True), ids=("random", "grid"))
@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"p={m.p}")
def test_ragged_run_slices_are_bitwise_per_pair(metric, d, grid):
    rng = np.random.default_rng(5)
    leaves = [
        (_leaf(_columns(rng, n, d, grid)), _leaf(_columns(rng, m, d, grid)))
        for n in SIZES for m in SIZES
    ]
    run = LeafRun(types.SimpleNamespace(metric=metric), leaves)
    for index, (leaf_p, leaf_q) in enumerate(leaves):
        single = pairwise_point_distances(
            leaf_p.points_array(), leaf_q.points_array(), metric)
        n, m = single.shape
        assert run.distances[index, :n, :m].tobytes() == single.tobytes()
        assert run.minima[index] == float(single.min())


# ---------------------------------------------------------------------------
# Cold (empty decoded-node cache) against warm trees
# ---------------------------------------------------------------------------

def _persist(directory, name: str, points) -> str:
    path = str(directory / f"{name}.pages")
    store = FilePageStore(path)
    tree = bulk_load(points, file=PagedFile(store, page_size=store.page_size))
    store.flush()
    write_sidecar(path, tree.metadata())
    store.close()
    return path


@pytest.fixture(scope="module")
def tree_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("leaf-runs")
    # Heights 3 and 2, so the height strategies expand differently.
    return (_persist(directory, "p", sequoia_like(1500)),
            _persist(directory, "q", uniform_points(250)))


@pytest.fixture(scope="module")
def warm_trees(tree_files):
    trees = [open_tree(path) for path in tree_files]
    for tree in trees:
        for __ in tree.iter_nodes():  # decode every node
            pass
    yield trees
    for tree in trees:
        tree.file.store.close()


CONSTRAINTS = {
    "none": {},
    "range": {"range": RangeSpec((0.2, 0.2), (0.7, 0.7))},
    "colors": {"colors": ColorSpec(modulus=3)},
}


def _summary(result):
    stats = result.stats
    return ([(p.distance, p.p, p.q, p.p_oid, p.q_oid) for p in result.pairs],
            stats.disk_accesses, stats.buffer_hits, stats.node_pairs_visited,
            stats.distance_computations, stats.queue_inserts,
            stats.max_queue_size)


@pytest.mark.parametrize("constraint", list(CONSTRAINTS))
@pytest.mark.parametrize("height_strategy", ("fix-at-root", "fix-at-leaves"))
@pytest.mark.parametrize("k", (1, 100))
@pytest.mark.parametrize("algorithm", CORE_ALGORITHMS)
def test_cold_tree_matches_warm(tree_files, warm_trees, monkeypatch,
                                algorithm, k, height_strategy, constraint):
    request = CPQRequest(k=k, algorithm=algorithm, buffer_pages=16,
                         height_strategy=height_strategy,
                         **CONSTRAINTS[constraint])
    scans = _record(monkeypatch, LeafRun, "scan")
    warm = k_closest_pairs(*warm_trees, request=request)
    assert scans, "a warm tree forms leaf runs"
    cold_trees = [open_tree(path) for path in tree_files]
    try:
        cold = k_closest_pairs(*cold_trees, request=request)
    finally:
        for tree in cold_trees:
            tree.file.store.close()
    assert _summary(cold) == _summary(warm)


# ---------------------------------------------------------------------------
# Pins recorded before leaf runs existed
# ---------------------------------------------------------------------------

#: ``explain --no-times`` of a HEAP query whose CP5 fires inside a run:
#: the popped-ahead pairs behind it go back, so ``pops`` and
#: ``leftover`` read as they did when each pair was popped alone.
MID_RUN_EXPLAIN = """\
   1  (0.6266867251784247, 0.802885894043567)  \
(0.6256192690523306, 0.8042713371792773)  0.001748975
   2  (0.6266867251784247, 0.802885894043567)  \
(0.6281724519783274, 0.8046164144506943)  0.002280808
   3  (0.986677930317109, 0.39041402334281483)  \
(0.9908774423648217, 0.3905267912709972)  0.004201026

request  kind=cpq k=3 algorithm=HEAP pairs=3
`-- traverse  algorithm=HEAP k=3 tie_break=TieBreak(T1) \
height_strategy=fix-at-root candidates_generated=404 \
pairs_pruned_minmin=283 node_pairs_visited=50 distance_computations=10388
    |-- heap  inserts=121 pops=50 max_size=117 leftover=71
    |-- io.p  disk_reads=50 buffer_hits=0 reads=50 observed_reads=49 \
observed_disk_reads=49 distinct_pages=22
    `-- io.q  disk_reads=50 buffer_hits=0 reads=50 observed_reads=49 \
observed_disk_reads=49 distinct_pages=22
# HEAP: 100 disk accesses, 0 buffer hits, 50 node pairs
"""


def test_heap_ending_inside_a_run_explains_as_before(tmp_path, monkeypatch):
    left, right = str(tmp_path / "l.npy"), str(tmp_path / "r.npy")
    save_points(left, np.array(uniform_points(300, seed=1)))
    save_points(right, np.array(sequoia_like(300, seed=2)))
    popped_ahead = _record(monkeypatch, heap_module, "_pop_leaf_pairs")
    scans = _record(monkeypatch, LeafRun, "scan")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["explain", left, right, "--k", "3",
                     "--algorithm", "heap", "--no-times"]) == 0
    # Each run is its popped leaf pair plus the ones popped ahead.
    runs = [1 + len(ahead) for ahead in popped_ahead if ahead]
    assert sum(runs) > len(scans), "CP5 fired inside a run"
    assert out.getvalue() == MID_RUN_EXPLAIN


class _Stop(Exception):
    pass


#: (algorithm, K, n) -> (P page reads, Q page reads, disk accesses)
#: when the cancellation probe raises on its n-th call.
CANCEL_PINS = {
    ("naive", 1, 9): (9, 9, 12), ("naive", 1, 45): (45, 45, 51),
    ("naive", 1, 120): (120, 120, 131), ("naive", 100, 45): (45, 45, 51),
    ("exh", 1, 9): (9, 9, 13), ("exh", 1, 45): (45, 45, 53),
    ("exh", 1, 120): (120, 120, 129), ("exh", 100, 45): (45, 45, 49),
    ("exh", 100, 120): (120, 120, 123),
    ("sim", 1, 45): (45, 45, 53), ("sim", 1, 120): (120, 120, 129),
    ("sim", 100, 45): (45, 45, 48), ("sim", 100, 120): (120, 120, 122),
    ("std", 1, 9): (9, 9, 13), ("std", 1, 45): (45, 45, 55),
    ("std", 1, 120): (120, 120, 124), ("std", 100, 45): (45, 45, 47),
    ("std", 100, 120): (120, 120, 114),
    ("heap", 1, 9): (9, 9, 9), ("heap", 1, 45): (45, 45, 44),
    ("heap", 1, 120): (120, 120, 131), ("heap", 100, 45): (45, 45, 44),
    ("heap", 100, 120): (120, 120, 131),
}


@pytest.fixture(scope="module")
def memory_trees():
    return bulk_load(sequoia_like(1500)), bulk_load(uniform_points(600))


@pytest.mark.parametrize("algorithm,k,n", list(CANCEL_PINS),
                         ids=lambda v: str(v))
def test_cancel_probe_stops_after_the_same_page_reads(memory_trees,
                                                      algorithm, k, n):
    tree_p, tree_q = memory_trees
    calls = []

    def probe():
        calls.append(1)
        if len(calls) == n:
            raise _Stop

    with pytest.raises(_Stop):
        k_closest_pairs(tree_p, tree_q, cancel_check=probe,
                        request=CPQRequest(k=k, algorithm=algorithm,
                                           buffer_pages=16))
    assert (tree_p.stats.reads, tree_q.stats.reads,
            tree_p.stats.disk_reads + tree_q.stats.disk_reads
            ) == CANCEL_PINS[(algorithm, k, n)]

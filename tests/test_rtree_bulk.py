"""STR bulk-loading tests."""

import math
import random

import pytest

from repro.errors import InvalidCoordinateError, ReproError
from repro.rtree.bulk import bulk_load
from repro.rtree.grid import grid_load
from repro.rtree.tree import RTreeConfig
from repro.rtree.validate import validate
from repro.storage.page import PageLayout


class TestBulkLoad:
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 13, 14, 15, 21, 22, 100, 441, 1000, 5000]
    )
    def test_invariants_across_sizes(self, n):
        rng = random.Random(n)
        points = [(rng.random(), rng.random()) for __ in range(n)]
        tree = bulk_load(points)
        summary = validate(tree)
        assert summary.entries == n
        assert len(tree) == n

    def test_contents_preserved_with_oids(self):
        rng = random.Random(2)
        points = [(rng.random(), rng.random()) for __ in range(300)]
        oids = [i * 7 for i in range(300)]
        tree = bulk_load(points, oids=oids)
        stored = sorted((e.point, e.oid) for e in tree.iter_leaf_entries())
        expected = sorted(
            ((float(x), float(y)), oid)
            for (x, y), oid in zip(points, oids)
        )
        assert stored == expected

    def test_default_oids_are_indices(self):
        tree = bulk_load([(0.0, 0.0), (1.0, 1.0)])
        oids = sorted(e.oid for e in tree.iter_leaf_entries())
        assert oids == [0, 1]

    def test_fill_factor_controls_leaf_count(self):
        rng = random.Random(4)
        points = [(rng.random(), rng.random()) for __ in range(2000)]
        dense = bulk_load(points, fill=1.0)
        sparse = bulk_load(points, fill=0.7)
        validate(dense)
        validate(sparse)
        assert dense.node_count() <= sparse.node_count()

    def test_bad_fill_rejected(self):
        with pytest.raises(ValueError):
            bulk_load([(0.0, 0.0)], fill=0.0)
        with pytest.raises(ValueError):
            bulk_load([(0.0, 0.0)], fill=1.5)

    def test_small_layout(self):
        layout = PageLayout(page_size=16 + 4 * 48)  # M = 4
        rng = random.Random(6)
        points = [(rng.random(), rng.random()) for __ in range(200)]
        tree = bulk_load(points, config=RTreeConfig(layout=layout))
        summary = validate(tree)
        assert summary.entries == 200
        assert tree.height >= 4  # tiny fanout forces a deep tree

    def test_identical_points(self):
        tree = bulk_load([(0.5, 0.5)] * 100)
        validate(tree)

    def test_bulk_tree_supports_further_inserts(self):
        rng = random.Random(8)
        points = [(rng.random(), rng.random()) for __ in range(500)]
        tree = bulk_load(points)
        for i in range(50):
            tree.insert((rng.random(), rng.random()), 1000 + i)
        summary = validate(tree)
        assert summary.entries == 550

    def test_bulk_tree_supports_deletes(self):
        rng = random.Random(12)
        points = [(rng.random(), rng.random()) for __ in range(300)]
        tree = bulk_load(points)
        for oid in range(0, 300, 2):
            assert tree.delete(points[oid], oid)
        summary = validate(tree)
        assert summary.entries == 150


class TestInputChecks:
    """Both packers reject malformed points before tiling them."""

    @pytest.mark.parametrize("load", [bulk_load, grid_load])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_coordinate_rejected(self, load, bad, axis):
        point = [0.5, 0.5]
        point[axis] = bad
        points = [(0.1, 0.9), (1.0, 1.0), tuple(point), (0.5, 0.2)]
        with pytest.raises(InvalidCoordinateError, match="point 2") as info:
            load(points)
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("load", [bulk_load, grid_load])
    def test_wrong_dimension_names_both_lengths(self, load):
        points = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5, 0.5)]
        with pytest.raises(ValueError, match=r"point 2 has 3 coordinates.*"
                                             r"dimension 2"):
            load(points)
        three_d = RTreeConfig(layout=PageLayout(dimension=3))
        with pytest.raises(ValueError, match=r"point 0 has 2 coordinates.*"
                                             r"dimension 3"):
            load([(0.0, 0.0)], config=three_d)

    @pytest.mark.parametrize("load", [bulk_load, grid_load])
    def test_oid_count_must_match(self, load):
        with pytest.raises(ValueError, match="1 oids for 2 points"):
            load([(0.0, 0.0), (1.0, 1.0)], oids=[7])

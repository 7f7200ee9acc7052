"""Persistence: trees over a real file survive reopen and stay queryable."""

import math
import random

from repro.catalog import open_tree
from repro.query import nearest_neighbors, range_query
from repro.geometry.mbr import MBR
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree
from repro.rtree.validate import validate
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore


def test_tree_roundtrip_through_file(tmp_path):
    path = str(tmp_path / "tree.pages")
    rng = random.Random(21)
    points = [(rng.random(), rng.random()) for __ in range(400)]

    store = FilePageStore(path, 1024)
    tree = bulk_load(points, file=PagedFile(store))
    meta = tree.metadata()
    store.flush()
    store.close()

    reopened = open_tree(path, metadata=meta)
    assert len(reopened) == len(points)
    validate(reopened)

    window = MBR((0.25, 0.25), (0.75, 0.75))
    got = sorted(e.oid for e in range_query(reopened, window))
    want = sorted(
        i for i, p in enumerate(points) if window.contains_point(p)
    )
    assert got == want

    found = nearest_neighbors(reopened, (0.5, 0.5), k=3)
    brute = sorted(math.dist((0.5, 0.5), p) for p in points)[:3]
    assert [round(d, 12) for d, __ in found] == [
        round(d, 12) for d in brute
    ]
    reopened.file.store.close()


def test_metadata_fields():
    tree = bulk_load([(0.0, 0.0), (1.0, 1.0)])
    meta = tree.metadata()
    assert meta["count"] == 2
    assert meta["height"] == tree.height
    assert meta["page_size"] == 1024
    assert meta["dimension"] == 2
    assert meta["variant"] == "rstar"


def test_dynamic_tree_on_file_store(tmp_path):
    path = str(tmp_path / "dyn.pages")
    tree = RTree(file=PagedFile(FilePageStore(path, 1024)))
    rng = random.Random(30)
    points = [(rng.random(), rng.random()) for __ in range(120)]
    for oid, point in enumerate(points):
        tree.insert(point, oid)
    for oid in range(0, 120, 3):
        assert tree.delete(points[oid], oid)
    validate(tree)

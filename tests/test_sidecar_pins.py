"""Pinned bytes of every ``.meta.json`` sidecar and ``catalog.json`` writer.

A persisted tree is a ``.pages`` file plus a JSON sidecar; a catalog
directory adds ``catalog.json``.  Tools outside this package read both,
so their bytes are part of the format.  These constants were recorded
from the reference implementation over fixed inputs
(``uniform_points(300, seed=5)`` and ``uniform_points(120, seed=6)``,
1024-byte pages) and pin, per writer:

* **build** -- ``repro-cpq build`` over the 300 points;
* **ingest_new** -- ``repro-cpq ingest`` of the 300 points into a new
  tree, batches of 50;
* **ingest_existing** -- ``ingest`` of the 120 points onto the built
  tree, batches of 40;
* **recover** -- ``recover`` after an ``ingest --keep-wal`` of the 120
  points onto the built tree whose sidecar was then put back to the
  pre-ingest bytes (the state a crash before the final rewrite leaves);
* **register_str** / **register_grid** -- ``Catalog.register_dataset``
  of the 300 points with ``kind="str"``, ``extra_kinds=("grid",)``;
* **checkpoint_wal** -- ``RTree.checkpoint_wal`` on a live tree built
  over the 300 points after three committed batches of the 120.

``catalog.json`` is pinned as a SHA-256 prefix of its bytes with every
``build_s`` wall time and the absolute ``source`` path masked: once
after the registration above (``register``) and once after adopting the
built page file under a second name (``adopt``).
"""

import hashlib
import os
import re
import shutil

import numpy as np
import pytest

from repro.catalog import Catalog, meta_path
from repro.cli import main
from repro.datasets import UNIT_WORKSPACE, uniform_points
from repro.rtree.bulk import bulk_load
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore
from repro.storage.wal import WriteAheadLog

def _meta(root_id, height, count, generation):
    return (f'{{"root_id": {root_id}, "height": {height}, '
            f'"count": {count}, "generation": {generation}, '
            f'"variant": "rstar", "page_size": 1024, "dimension": 2}}')


#: writer -> the sidecar text it leaves (``json.dump`` defaults, no
#: trailing newline, ``RTree.metadata`` key order).
SIDECAR_PINS = {
    'build': _meta(22, 3, 300, 0),
    'ingest_new': _meta(10, 2, 300, 6),
    'ingest_existing': _meta(4, 3, 420, 3),
    'recover': _meta(4, 3, 420, 3),
    'register_str': _meta(22, 3, 300, 0),
    'register_grid': _meta(23, 3, 300, 0),
    'checkpoint_wal': _meta(4, 3, 420, 3),
}

#: stage -> SHA-256 prefix of the masked ``catalog.json``.
CATALOG_PINS = {
    "register": "a3386426e851638e",
    "adopt": "2a9f4e63f9349be5",
}


def _points(n, seed):
    return uniform_points(n, UNIT_WORKSPACE, seed=seed)


def _save(path, points):
    np.save(path, np.asarray(points, dtype=float))
    return path


def _sidecar(pages):
    with open(meta_path(pages), "rb") as handle:
        return handle.read().decode("utf-8")


def _built(tmp_path):
    points = _save(str(tmp_path / "p.npy"), _points(300, 5))
    pages = str(tmp_path / "built.pages")
    assert main(["build", points, "--tree", pages]) == 0
    return pages


def _extra(tmp_path):
    return _save(str(tmp_path / "extra.npy"), _points(120, 6))


def _writer_build(tmp_path):
    return _sidecar(_built(tmp_path))


def _writer_ingest_new(tmp_path):
    points = _save(str(tmp_path / "p.npy"), _points(300, 5))
    pages = str(tmp_path / "new.pages")
    assert main(["ingest", points, "--tree", pages,
                 "--batch-size", "50"]) == 0
    return _sidecar(pages)


def _writer_ingest_existing(tmp_path):
    pages = _built(tmp_path)
    assert main(["ingest", _extra(tmp_path), "--tree", pages,
                 "--batch-size", "40"]) == 0
    return _sidecar(pages)


def _writer_recover(tmp_path):
    pages = _built(tmp_path)
    before = _sidecar(pages)
    assert main(["ingest", _extra(tmp_path), "--tree", pages,
                 "--batch-size", "40", "--keep-wal"]) == 0
    with open(meta_path(pages), "w", encoding="utf-8") as handle:
        handle.write(before)
    assert main(["recover", "--tree", pages]) == 0
    return _sidecar(pages)


def _registered(tmp_path):
    os.makedirs(tmp_path / "data")
    catalog = Catalog(str(tmp_path / "data"))
    catalog.register_dataset("parks", _points(300, 5), kind="str",
                             extra_kinds=("grid",))
    return catalog


def _writer_register_str(tmp_path):
    _registered(tmp_path)
    return _sidecar(str(tmp_path / "data" / "parks.str.pages"))


def _writer_register_grid(tmp_path):
    _registered(tmp_path)
    return _sidecar(str(tmp_path / "data" / "parks.grid.pages"))


def _writer_checkpoint_wal(tmp_path):
    pages = str(tmp_path / "live.pages")
    tree = bulk_load(_points(300, 5),
                     file=PagedFile(FilePageStore(pages, 1024)))
    wal = WriteAheadLog(pages + ".wal", sync_mode="none")
    tree.enable_live_mutation(wal)
    extra = _points(120, 6)
    try:
        for batch in range(3):
            with tree.batch():
                for i in range(batch * 40, batch * 40 + 40):
                    tree.insert(tuple(extra[i]), 300 + i)
        assert tree.checkpoint_wal(meta_path(pages))
    finally:
        wal.close()
        tree.file.store.close()
    return _sidecar(pages)


WRITERS = {
    "build": _writer_build,
    "ingest_new": _writer_ingest_new,
    "ingest_existing": _writer_ingest_existing,
    "recover": _writer_recover,
    "register_str": _writer_register_str,
    "register_grid": _writer_register_grid,
    "checkpoint_wal": _writer_checkpoint_wal,
}


def _catalog_digest(catalog, tmp_path) -> str:
    with open(catalog.path, "rb") as handle:
        text = handle.read().decode("utf-8")
    text = re.sub(r'"build_s": [0-9.e-]+', '"build_s": 0', text)
    text = text.replace(str(tmp_path), "<tmp>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("writer", sorted(SIDECAR_PINS))
def test_sidecar_bytes_pinned(writer, tmp_path):
    assert WRITERS[writer](tmp_path) == SIDECAR_PINS[writer]
    assert not [name for __, __, names in os.walk(tmp_path)
                for name in names if name.endswith(".tmp")]


@pytest.mark.parametrize("stage", sorted(CATALOG_PINS))
def test_catalog_bytes_pinned(stage, tmp_path):
    catalog = _registered(tmp_path)
    if stage == "adopt":
        pages = str(tmp_path / "data" / "old.pages")
        source = str(tmp_path / "data" / "parks.str.pages")
        shutil.copyfile(source, pages)
        shutil.copyfile(meta_path(source), meta_path(pages))
        catalog.adopt_pages("old", pages, kind="str")
    assert _catalog_digest(catalog, tmp_path) == CATALOG_PINS[stage]

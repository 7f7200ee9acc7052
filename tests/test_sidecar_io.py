"""The ``.meta.json`` sidecar reader and writer at the CLI boundary.

A sidecar that misses a required field is a typed
:class:`~repro.errors.CatalogError` (exit 2 naming the field), never a
raw ``KeyError``; ``ingest`` reopens through the same path as
``query``, so it accepts what ``query`` accepts; and a sidecar write
that fails midway leaves the previous sidecar intact with no temporary
file behind.
"""

import json
import os

import numpy as np
import pytest

from repro.catalog import meta_path
from repro.cli import main
from repro.datasets import UNIT_WORKSPACE, uniform_points
from repro.errors import CatalogError


def _save(path, n, seed):
    np.save(path, np.asarray(uniform_points(n, UNIT_WORKSPACE, seed=seed),
                             dtype=float))
    return str(path)


@pytest.fixture()
def built(tmp_path):
    """A built tree plus a second points file to query or ingest."""
    pages = str(tmp_path / "t.pages")
    assert main(["build", _save(tmp_path / "p.npy", 200, 1),
                 "--tree", pages]) == 0
    return pages, _save(tmp_path / "q.npy", 60, 2)


def _edit_sidecar(pages, drop):
    with open(meta_path(pages)) as handle:
        metadata = json.load(handle)
    del metadata[drop]
    with open(meta_path(pages), "w") as handle:
        json.dump(metadata, handle)


def _torn_dump(obj, handle, **kwargs):
    handle.write('{"root_id": ')
    raise OSError("disk full")


def _leftover_tmp(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


class TestTypedErrors:
    @pytest.mark.parametrize("field", ["root_id", "height", "count",
                                       "page_size"])
    def test_read_sidecar_names_missing_field(self, built, field):
        from repro.catalog import read_sidecar

        pages, __ = built
        _edit_sidecar(pages, field)
        with pytest.raises(CatalogError, match=repr(field)):
            read_sidecar(pages)

    def test_query_missing_root_id_exits_2(self, built, capsys):
        pages, other = built
        _edit_sidecar(pages, "root_id")
        assert main(["query", pages, other, "--k", "3"]) == 2
        assert "'root_id'" in capsys.readouterr().err

    def test_ingest_without_dimension_matches_query(self, built, capsys):
        pages, other = built
        _edit_sidecar(pages, "dimension")
        assert main(["query", pages, other, "--k", "3"]) == 0
        assert main(["ingest", other, "--tree", pages,
                     "--batch-size", "20"]) == 0
        with open(meta_path(pages)) as handle:
            assert json.load(handle)["count"] == 260
        assert "260 total" in capsys.readouterr().out


class TestTornSidecar:
    def test_ingest_final_rewrite(self, built, monkeypatch, tmp_path):
        pages, other = built
        with open(meta_path(pages), "rb") as handle:
            before = handle.read()
        monkeypatch.setattr(json, "dump", _torn_dump)
        with pytest.raises(OSError, match="disk full"):
            main(["ingest", other, "--tree", pages, "--batch-size", "20"])
        with open(meta_path(pages), "rb") as handle:
            assert handle.read() == before
        assert not _leftover_tmp(tmp_path)

    def test_build(self, built, monkeypatch, tmp_path):
        pages, other = built
        with open(meta_path(pages), "rb") as handle:
            before = handle.read()
        monkeypatch.setattr(json, "dump", _torn_dump)
        with pytest.raises(OSError, match="disk full"):
            main(["build", other, "--tree", pages])
        with open(meta_path(pages), "rb") as handle:
            assert handle.read() == before
        assert not _leftover_tmp(tmp_path)

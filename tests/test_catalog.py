"""The dataset catalog: registration, persistence, the single reopen
path, and service attachment.

A :class:`repro.catalog.Catalog` is the system's only mapping from
names to built indexes; everything here pins the contract the CLI,
service and shard tiers now lean on -- a registered dataset reopens
byte-identically across processes, schema drift is refused loudly, and
the service resolves ``FROM``-clause names lazily under its own lock.
"""

import json
import os
import random

import pytest

from repro.catalog import (
    CATALOG_FILENAME,
    Catalog,
    CatalogError,
    SCHEMA_VERSION,
    UnknownDatasetError,
    meta_path,
    open_tree,
)
from repro.core.api import CPQRequest as CoreRequest, k_closest_pairs
from repro.service import CPQRequest, QueryService


def _points(n, seed=5):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for __ in range(n)]


@pytest.fixture
def catalog(tmp_path):
    return Catalog(str(tmp_path))


class TestRegistration:
    def test_register_and_open_round_trip(self, catalog):
        points = _points(200)
        entry = catalog.register_dataset("parks", points, kind="str")
        assert entry.count == 200
        assert entry.default_kind == "str"
        tree = catalog.open_dataset("parks")
        try:
            assert len(tree) == 200
        finally:
            tree.file.store.close()

    def test_auto_kind_records_planner_decision(self, catalog):
        entry = catalog.register_dataset("auto", _points(350))
        chosen = entry.default_kind
        assert chosen in ("str", "grid", "dynamic")
        decision = entry.indexes[chosen].build["decision"]
        assert decision["kind"] == chosen
        assert decision["reason"]

    def test_extra_kinds_build_alongside(self, catalog):
        entry = catalog.register_dataset(
            "multi", _points(150), kind="str",
            extra_kinds=("grid", "dynamic"),
        )
        assert entry.kinds() == ["dynamic", "grid", "str"]
        for kind in entry.kinds():
            tree = catalog.open_dataset("multi", kind)
            try:
                assert len(tree) == 150
            finally:
                tree.file.store.close()

    def test_duplicate_name_rejected_without_overwrite(self, catalog):
        catalog.register_dataset("dup", _points(20), kind="str")
        with pytest.raises(CatalogError, match="already registered"):
            catalog.register_dataset("dup", _points(20), kind="str")
        catalog.register_dataset(
            "dup", _points(30), kind="str", overwrite=True
        )
        assert catalog.dataset("dup").count == 30

    @pytest.mark.parametrize("bad", ["", "a,b", "a" + os.sep + "b"])
    def test_invalid_names_rejected(self, catalog, bad):
        with pytest.raises(CatalogError, match="name"):
            catalog.register_dataset(bad, _points(5), kind="str")

    def test_empty_dataset_rejected(self, catalog):
        with pytest.raises(CatalogError, match="no points"):
            catalog.register_dataset("void", [], kind="str")

    def test_unknown_kind_rejected(self, catalog):
        with pytest.raises(CatalogError, match="kind"):
            catalog.register_dataset("x", _points(5), kind="btree")


class TestPersistence:
    def test_survives_reinstantiation(self, catalog, tmp_path):
        points = _points(120, seed=9)
        catalog.register_dataset("stable", points, kind="str")
        reloaded = Catalog(str(tmp_path))
        assert "stable" in reloaded
        tree = reloaded.open_dataset("stable")
        try:
            result = k_closest_pairs(
                tree, tree, request=CoreRequest(k=3, algorithm="self")
            )
            assert len(result.pairs) == 3
        finally:
            tree.file.store.close()

    def test_registered_entry_equals_reloaded(self, catalog, tmp_path):
        catalog.register_dataset("same", _points(60), kind="str")
        reloaded = Catalog(str(tmp_path))
        assert (reloaded.dataset("same").index().spec
                == catalog.dataset("same").index().spec)

    def test_paths_stored_relative(self, catalog, tmp_path):
        catalog.register_dataset("rel", _points(40), kind="str")
        with open(tmp_path / CATALOG_FILENAME) as handle:
            obj = json.load(handle)
        path = obj["datasets"]["rel"]["indexes"]["str"]["path"]
        assert not os.path.isabs(path)

    def test_schema_version_mismatch_refused(self, catalog, tmp_path):
        catalog.register_dataset("v", _points(10), kind="str")
        with open(tmp_path / CATALOG_FILENAME) as handle:
            obj = json.load(handle)
        obj["schema_version"] = SCHEMA_VERSION + 1
        with open(tmp_path / CATALOG_FILENAME, "w") as handle:
            json.dump(obj, handle)
        with pytest.raises(CatalogError, match="schema version"):
            Catalog(str(tmp_path))

    def test_corrupt_catalog_file_refused(self, tmp_path):
        (tmp_path / CATALOG_FILENAME).write_text("{not json")
        with pytest.raises(CatalogError, match="unreadable"):
            Catalog(str(tmp_path))

    def test_remove_dataset(self, catalog, tmp_path):
        catalog.register_dataset("gone", _points(15), kind="str")
        pages = catalog.dataset("gone").index().spec.path
        catalog.remove_dataset("gone", delete_files=True)
        assert "gone" not in catalog
        assert not os.path.exists(pages)
        assert not os.path.exists(meta_path(pages))
        assert "gone" not in Catalog(str(tmp_path))


    def test_separator_path_is_a_new_directory(self, tmp_path,
                                                monkeypatch):
        # "--catalog data/" before data/ exists: the catalog and its
        # page files go inside data/, not into a file named "data".
        monkeypatch.chdir(tmp_path)
        catalog = Catalog("data" + os.sep)
        catalog.register_dataset("parks", _points(30), kind="str")
        assert os.path.isfile(os.path.join("data", "catalog.json"))
        pages = catalog.dataset("parks").index().spec.path
        assert os.path.dirname(pages) == str(tmp_path / "data")
        assert "parks" in Catalog("data" + os.sep)


class TestLookups:
    def test_unknown_dataset_lists_known(self, catalog):
        catalog.register_dataset("known", _points(10), kind="str")
        with pytest.raises(UnknownDatasetError) as info:
            catalog.open_dataset("nope")
        assert "known" in str(info.value)
        # KeyError compatibility for callers that only know dicts.
        with pytest.raises(KeyError):
            catalog.dataset("nope")

    def test_unknown_kind_on_known_dataset(self, catalog):
        catalog.register_dataset("k", _points(10), kind="str")
        with pytest.raises(UnknownDatasetError):
            catalog.open_dataset("k", "grid")

    def test_missing_page_file_detected(self, catalog):
        catalog.register_dataset("lost", _points(10), kind="str")
        os.remove(catalog.dataset("lost").index().spec.path)
        with pytest.raises(CatalogError, match="missing page file"):
            catalog.open_dataset("lost")

    def test_tree_spec_reopens_same_snapshot(self, catalog):
        points = _points(260, seed=3)
        catalog.register_dataset("spec", points, kind="str")
        spec = catalog.tree_spec("spec")
        via_spec = spec.open()
        via_open = catalog.open_dataset("spec")
        try:
            assert via_spec.generation == via_open.generation
            request = CoreRequest(k=5, algorithm="heap")
            assert (
                k_closest_pairs(via_spec, via_spec, request=request).pairs
                == k_closest_pairs(via_open, via_open,
                                   request=request).pairs
            )
        finally:
            via_spec.file.store.close()
            via_open.file.store.close()


class TestAdoptPages:
    def test_adopt_existing_pages(self, catalog, tmp_path):
        catalog.register_dataset("orig", _points(80), kind="str")
        pages = catalog.dataset("orig").index().spec.path
        other = Catalog(str(tmp_path / "other"))
        entry = other.adopt_pages("adopted", pages, kind="str")
        assert entry.count == 80
        tree = other.open_dataset("adopted")
        try:
            assert len(tree) == 80
        finally:
            tree.file.store.close()
        assert "adopted" in Catalog(str(tmp_path / "other"))

    def test_adopt_missing_file_rejected(self, catalog):
        with pytest.raises(CatalogError, match="no page file"):
            catalog.adopt_pages("ghost", "/nonexistent.pages")


class TestOpenTree:
    def test_sidecar_metadata_used(self, catalog):
        catalog.register_dataset("side", _points(60), kind="str")
        path = catalog.dataset("side").index().spec.path
        tree = open_tree(path)
        try:
            assert len(tree) == 60
        finally:
            tree.file.store.close()

    def test_missing_sidecar_reported(self, catalog, tmp_path):
        catalog.register_dataset("nos", _points(10), kind="str")
        path = catalog.dataset("nos").index().spec.path
        os.remove(meta_path(path))
        with pytest.raises(CatalogError, match="sidecar"):
            open_tree(path)


class TestServiceAttachment:
    def test_from_names_resolve_lazily(self, catalog):
        catalog.register_dataset("parks", _points(200, seed=1),
                                 kind="str")
        catalog.register_dataset("schools", _points(180, seed=2),
                                 kind="str")
        service = QueryService(workers=1, cache_size=0)
        service.attach_catalog(catalog)
        try:
            response = service.execute_sql(
                "SELECT CLOSEST PAIRS K 4 FROM parks, schools"
            )
            assert response.ok
            assert len(response.result.pairs) == 4
            direct = service.submit(
                CPQRequest(pair="parks,schools", k=4, use_cache=False)
            ).result()
            assert direct.result.pairs == response.result.pairs
        finally:
            service.close()

    def test_unknown_from_name_raises_synchronously(self, catalog):
        service = QueryService(workers=1, cache_size=0)
        service.attach_catalog(catalog)
        try:
            with pytest.raises(UnknownDatasetError):
                service.execute_sql("SELECT CLOSEST PAIRS FROM missing")
        finally:
            service.close()

    def test_self_join_single_name(self, catalog):
        catalog.register_dataset("solo", _points(150, seed=4),
                                 kind="str")
        service = QueryService(workers=1, cache_size=0)
        service.attach_catalog(catalog)
        try:
            response = service.execute_sql(
                "SELECT CLOSEST PAIRS K 2 FROM solo USING self"
            )
            assert response.ok
            assert len(response.result.pairs) == 2
        finally:
            service.close()


class TestLegacyPages:
    def test_shard_spec_keeps_legacy_flag(self, catalog, tmp_path):
        """An entry adopted with ``allow_legacy_pages`` must reach the
        shard tier with the flag: its ``TreeSpec`` reopens version-0
        pages exactly as :meth:`Catalog.open_dataset` does."""
        catalog.register_dataset("orig", _points(120), kind="str")
        pages = catalog.dataset("orig").index().spec.path
        page_size = catalog.dataset("orig").index().spec.page_size
        # Demote every page to a pre-checksum (version 0) image.
        with open(pages, "r+b") as handle:
            size = os.path.getsize(pages)
            for offset in range(0, size, page_size):
                handle.seek(offset + 8)
                handle.write(b"\x00" * 8)
        legacy = Catalog(str(tmp_path / "legacy"))
        legacy.adopt_pages("old", pages, kind="str",
                           allow_legacy_pages=True)
        via_catalog = legacy.open_dataset("old")
        via_spec = legacy.tree_spec("old").open()
        try:
            request = CoreRequest(k=5, algorithm="heap")
            assert (
                k_closest_pairs(via_spec, via_spec, request=request).pairs
                == k_closest_pairs(via_catalog, via_catalog,
                                   request=request).pairs
            )
        finally:
            via_spec.file.store.close()
            via_catalog.file.store.close()

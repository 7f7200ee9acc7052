"""Persisted dataset catalog: named datasets, built indexes, one
``open_dataset`` API.

A :class:`Catalog` maps names to built indexes (STR-packed,
grid-packed, or dynamic R*-trees -- see ``docs/CATALOG.md``).  Every
persisted tree is described by one :class:`TreeSpec`, its sidecar is
written by :func:`write_sidecar` and read by :func:`read_sidecar`, and
:func:`open_tree` is the single reopen path every layer (CLI, service,
shards, WAL recovery) goes through.  CPQL queries
(:mod:`repro.query.cpql`) resolve their ``FROM`` clauses against a
catalog.
"""

from repro.catalog.core import (
    CATALOG_FILENAME,
    Catalog,
    DatasetEntry,
    IndexEntry,
    SCHEMA_VERSION,
    TreeSpec,
    meta_path,
    open_tree,
    read_sidecar,
    tree_spec,
    write_sidecar,
)
from repro.errors import CatalogError, UnknownDatasetError

__all__ = [
    "CATALOG_FILENAME",
    "Catalog",
    "CatalogError",
    "DatasetEntry",
    "IndexEntry",
    "SCHEMA_VERSION",
    "TreeSpec",
    "UnknownDatasetError",
    "meta_path",
    "open_tree",
    "read_sidecar",
    "tree_spec",
    "write_sidecar",
]

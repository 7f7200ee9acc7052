"""Persisted trees: one descriptor, one sidecar format, one reopen path.

A persisted tree is a ``.pages`` file plus a ``.meta.json`` sidecar
holding its :meth:`~repro.rtree.tree.RTree.metadata`.  This module owns
everything about that pair: :class:`TreeSpec` describes one tree
(:func:`tree_spec` captures it from an open tree), :func:`write_sidecar`
and :func:`read_sidecar` are the only sidecar writer and reader, and
:func:`open_tree` is the one function that turns (path, metadata,
flags) into a live :class:`~repro.rtree.tree.RTree`.

A :class:`Catalog` is a JSON sidecar (``catalog.json``) naming the
datasets of one directory and, per dataset, one or more **built
indexes**: the index kind (``str`` / ``grid`` / ``dynamic``, see
:data:`repro.analysis.cost_model.INDEX_KINDS`), the page-file path,
the committed snapshot generation it was registered at, the mmap /
legacy-page flags its storage wants, and build statistics.  The CLI,
the query service and the network shards resolve catalog names::

    catalog = Catalog("data/catalog.json")
    catalog.register_dataset("parks", points, kind="auto")
    tree = catalog.open_dataset("parks")          # planner-chosen index
    spec = catalog.tree_spec("parks")             # shard-reopenable

The schema is versioned (:data:`SCHEMA_VERSION`); a catalog written by
a future incompatible layout is refused, never guessed at.  Page-file
paths are stored relative to the catalog's directory so a dataset
directory can be moved or shipped wholesale.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.cost_model import INDEX_KINDS
from repro.errors import CatalogError, UnknownDatasetError
from repro.rtree.bulk import bulk_load
from repro.rtree.grid import grid_load
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.page import PageLayout
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore, write_json_atomic

#: Catalog file schema version; bump on any incompatible layout change.
SCHEMA_VERSION = 1

#: Default catalog file name inside a dataset directory.
CATALOG_FILENAME = "catalog.json"

#: Appended to a page file's path to name its metadata sidecar.
SIDECAR_SUFFIX = ".meta.json"

#: Sidecar fields without a default; the rest (``generation``,
#: ``variant``, ``dimension``) fall back to 0, ``"rstar"`` and 2.
REQUIRED_METADATA = ("root_id", "height", "count", "page_size")


def open_tree(
    path: str,
    *,
    metadata: Optional[Dict[str, Any]] = None,
    page_size: Optional[int] = None,
    use_mmap: bool = False,
    readonly: bool = True,
    buffer_capacity: int = 0,
    read_latency: float = 0.0,
    allow_legacy_pages: bool = False,
) -> RTree:
    """Reopen one persistent tree: the single source of truth.

    Every reopen in the system -- catalog lookups, shard workers
    (:meth:`TreeSpec.open`), the CLI's ``.pages`` arguments, ``ingest``
    onto an existing tree and WAL recovery
    (:func:`repro.storage.wal.recover_tree`) -- goes through here, so
    the snapshot-generation, mmap and legacy-page handling cannot
    diverge between layers.

    ``metadata`` is the :meth:`~repro.rtree.tree.RTree.metadata` dict;
    when omitted it is loaded with :func:`read_sidecar`.  ``page_size``
    overrides the metadata's (they must agree with the file's framing).
    """
    if metadata is None:
        metadata = read_sidecar(path)
    if page_size is None:
        page_size = int(metadata["page_size"])
    store = FilePageStore(path, page_size, readonly=readonly,
                          use_mmap=use_mmap)
    file = PagedFile(
        store,
        buffer_capacity=buffer_capacity,
        page_size=page_size,
        read_latency=read_latency,
    )
    config = RTreeConfig(
        layout=PageLayout(
            page_size=page_size,
            dimension=int(metadata.get("dimension", 2)),
        ),
        variant=metadata.get("variant", "rstar"),
        allow_legacy_pages=allow_legacy_pages,
    )
    tree = RTree(config, file)
    tree.root_id = metadata["root_id"]
    tree.height = int(metadata["height"])
    tree._count = int(metadata["count"])
    tree.generation = int(metadata.get("generation", 0))
    return tree


def meta_path(pages_path: str) -> str:
    """The ``.meta.json`` sidecar path of one page file."""
    return pages_path + SIDECAR_SUFFIX


def read_sidecar(pages_path: str) -> Dict[str, Any]:
    """Load one page file's sidecar metadata.

    Raises :class:`~repro.errors.CatalogError` when the sidecar is
    missing, is not JSON, or lacks one of :data:`REQUIRED_METADATA`.
    """
    sidecar = meta_path(pages_path)
    try:
        with open(sidecar, encoding="utf-8") as handle:
            metadata = json.load(handle)
    except FileNotFoundError:
        raise CatalogError(
            f"no metadata sidecar at {sidecar}; pass metadata= or "
            f"rebuild the tree"
        ) from None
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"unreadable metadata sidecar {sidecar}: {exc}"
        ) from exc
    for key in REQUIRED_METADATA:
        if key not in metadata:
            raise CatalogError(
                f"metadata sidecar {sidecar} misses required field "
                f"{key!r}"
            )
    return metadata


def write_sidecar(pages_path: str, metadata: Dict[str, Any]) -> None:
    """Atomically (re)write one page file's sidecar.

    Goes through :func:`~repro.storage.store.write_json_atomic`, so a
    failed write leaves the previous sidecar intact and no temporary
    file behind.  Callers flush the page store first: the sidecar must
    never name pages the file lacks.
    """
    write_json_atomic(meta_path(pages_path), metadata)


@dataclass(frozen=True)
class TreeSpec:
    """Everything a process needs to reopen one persistent tree.

    ``metadata`` is the :meth:`~repro.rtree.tree.RTree.metadata` dict
    *pinned at a committed generation* (see :func:`tree_spec`):
    because live mutation is copy-on-write, the pages reachable from
    that root are immutable on disk, so shard processes reopening the
    spec read a consistent tree even while the coordinator's writer
    keeps committing batches.  ``read_latency`` models the device seek
    exactly as :class:`~repro.storage.paged_file.PagedFile` does
    (benchmarks use it to put shards in the disk-bound regime);
    ``use_mmap`` reopens the store with the mmap read path and
    ``allow_legacy_pages`` accepts version-0 (pre-checksum) pages.
    """

    path: str
    page_size: int
    metadata: Any
    buffer_capacity: int = 64
    read_latency: float = 0.0
    use_mmap: bool = False
    allow_legacy_pages: bool = False

    @property
    def generation(self) -> int:
        """The committed generation this spec reopens at."""
        return int(self.metadata.get("generation", 0))

    def open(self, readonly: bool = True) -> RTree:
        """Reopen the described tree through :func:`open_tree`."""
        return open_tree(
            self.path,
            metadata=self.metadata,
            page_size=self.page_size,
            use_mmap=self.use_mmap,
            readonly=readonly,
            buffer_capacity=self.buffer_capacity,
            read_latency=self.read_latency,
            allow_legacy_pages=self.allow_legacy_pages,
        )


def tree_spec(tree: RTree, buffer_capacity: Optional[int] = None,
              read_latency: Optional[float] = None,
              use_mmap: bool = False) -> TreeSpec:
    """Describe an open file-backed tree for reopening elsewhere.

    The spec captures the tree's *committed snapshot*
    (:meth:`~repro.rtree.tree.RTree.metadata`), not its live fields:
    an open mutation batch on a live tree writes only copy-on-write
    pages, so after the flush below the committed root and everything
    reachable from it are durable and immutable -- exactly what a
    shard process must see.
    """
    store = tree.file.store
    if not isinstance(store, FilePageStore):
        raise ValueError(
            "sharding requires file-backed trees (FilePageStore); "
            "in-memory trees cannot be reopened by shard processes"
        )
    store.flush()
    return TreeSpec(
        path=store.path,
        page_size=store.page_size,
        metadata=tree.metadata(),
        buffer_capacity=(tree.file.buffer.capacity
                         if buffer_capacity is None else buffer_capacity),
        read_latency=(tree.file.read_latency
                      if read_latency is None else read_latency),
        use_mmap=use_mmap,
        allow_legacy_pages=tree.config.allow_legacy_pages,
    )


@dataclass(frozen=True)
class IndexEntry:
    """One built index of one dataset.

    ``spec`` describes the page file: its path is absolute once loaded
    (the catalog file stores it relative to its own directory) and its
    metadata is the committed snapshot the index was registered at --
    reopening through it is what makes shard workers and the service
    agree on a generation.
    """

    kind: str
    spec: TreeSpec
    #: Build statistics: ``build_s`` (wall seconds), ``nodes``,
    #: ``height`` and -- for planner-chosen indexes -- the decision's
    #: evidence dict.
    build: Dict[str, Any] = field(default_factory=dict)

    def to_json(self, base_dir: str) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "path": os.path.relpath(self.spec.path, base_dir),
            "page_size": self.spec.page_size,
            "metadata": dict(self.spec.metadata),
            "use_mmap": self.spec.use_mmap,
            "allow_legacy_pages": self.spec.allow_legacy_pages,
            "build": dict(self.build),
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any], base_dir: str) -> "IndexEntry":
        try:
            return cls(
                kind=obj["kind"],
                spec=TreeSpec(
                    path=os.path.normpath(
                        os.path.join(base_dir, obj["path"])
                    ),
                    page_size=int(obj["page_size"]),
                    metadata=dict(obj["metadata"]),
                    use_mmap=bool(obj.get("use_mmap", False)),
                    allow_legacy_pages=bool(
                        obj.get("allow_legacy_pages", False)
                    ),
                ),
                build=dict(obj.get("build", {})),
            )
        except KeyError as exc:
            raise CatalogError(
                f"index entry misses required field {exc}"
            ) from exc


@dataclass
class DatasetEntry:
    """One named dataset and its built indexes, keyed by kind."""

    name: str
    dimension: int
    count: int
    indexes: Dict[str, IndexEntry] = field(default_factory=dict)
    #: The kind :meth:`index` resolves when none is asked for --
    #: the planner's recommendation for ``kind="auto"`` registrations.
    default_kind: Optional[str] = None
    #: Free-form provenance (source file, generator, notes).
    source: Optional[str] = None

    def index(self, kind: Optional[str] = None) -> IndexEntry:
        """The entry for ``kind`` (default: the dataset's default)."""
        if kind is None:
            kind = self.default_kind
        if kind is None and len(self.indexes) == 1:
            kind = next(iter(self.indexes))
        if kind is None or kind not in self.indexes:
            raise UnknownDatasetError(
                f"{self.name}[{kind or '?'}]",
                tuple(f"{self.name}[{k}]" for k in sorted(self.indexes)),
            )
        return self.indexes[kind]

    def kinds(self) -> List[str]:
        return sorted(self.indexes)

    def to_json(self, base_dir: str) -> Dict[str, Any]:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "count": self.count,
            "default_kind": self.default_kind,
            "source": self.source,
            "indexes": {
                kind: entry.to_json(base_dir)
                for kind, entry in sorted(self.indexes.items())
            },
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any],
                  base_dir: str) -> "DatasetEntry":
        try:
            return cls(
                name=obj["name"],
                dimension=int(obj["dimension"]),
                count=int(obj["count"]),
                default_kind=obj.get("default_kind"),
                source=obj.get("source"),
                indexes={
                    kind: IndexEntry.from_json(entry, base_dir)
                    for kind, entry in obj.get("indexes", {}).items()
                },
            )
        except KeyError as exc:
            raise CatalogError(
                f"dataset entry misses required field {exc}"
            ) from exc


def _build_index(
    kind: str,
    points: Sequence[Sequence[float]],
    oids: Optional[Sequence[int]],
    pages_path: str,
    page_size: int,
    dimension: int,
) -> RTree:
    """Build one index of ``kind`` into ``pages_path``; returns the
    (still open, flushed) tree."""
    store = FilePageStore(pages_path, page_size)
    file = PagedFile(store, page_size=page_size)
    config = RTreeConfig(
        layout=PageLayout(page_size=page_size, dimension=dimension)
    )
    if kind == "str":
        tree = bulk_load(points, oids, config=config, file=file)
    elif kind == "grid":
        tree = grid_load(points, oids, config=config, file=file)
    elif kind == "dynamic":
        tree = RTree(config, file)
        if oids is None:
            oids = range(len(points))
        for point, oid in zip(points, oids):
            tree.insert(tuple(float(v) for v in point), int(oid))
    else:
        raise CatalogError(
            f"unknown index kind {kind!r}; expected one of "
            f"{INDEX_KINDS} or 'auto'"
        )
    store.flush()
    return tree


class Catalog:
    """A directory's persisted map of dataset names to built indexes.

    Parameters
    ----------
    path:
        The catalog JSON file, or a directory (then
        ``<dir>/catalog.json``): an existing one, or any path ending in
        a separator, which is created.  Loaded when it exists; a
        missing file starts an empty catalog whose first :meth:`save`
        creates it.  Page files built by :meth:`register_dataset` land
        next to the catalog file.
    """

    def __init__(self, path: str):
        if path.endswith(os.sep) or (os.altsep and path.endswith(os.altsep)):
            os.makedirs(path, exist_ok=True)
        if os.path.isdir(path):
            path = os.path.join(path, CATALOG_FILENAME)
        self.path = os.path.abspath(path)
        self.base_dir = os.path.dirname(self.path)
        self._datasets: Dict[str, DatasetEntry] = {}
        if os.path.exists(self.path):
            self._load()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as handle:
                obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CatalogError(
                f"unreadable catalog {self.path}: {exc}"
            ) from exc
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CatalogError(
                f"catalog {self.path} has schema version {version!r}; "
                f"this build speaks version {SCHEMA_VERSION}"
            )
        self._datasets = {
            name: DatasetEntry.from_json(entry, self.base_dir)
            for name, entry in obj.get("datasets", {}).items()
        }

    def save(self) -> None:
        """Atomically persist the catalog (write-temp + rename)."""
        os.makedirs(self.base_dir, exist_ok=True)
        obj = {
            "schema_version": SCHEMA_VERSION,
            "datasets": {
                name: entry.to_json(self.base_dir)
                for name, entry in sorted(self._datasets.items())
            },
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)

    # -- lookups -----------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    def dataset(self, name: str) -> DatasetEntry:
        try:
            return self._datasets[name]
        except KeyError:
            raise UnknownDatasetError(name, tuple(self.names())) from None

    def open_dataset(
        self,
        name: str,
        kind: Optional[str] = None,
        *,
        use_mmap: Optional[bool] = None,
        buffer_capacity: int = 0,
        read_latency: float = 0.0,
        readonly: bool = True,
    ) -> RTree:
        """Open one dataset's index as a live tree.

        Flags come from the catalog entry unless explicitly
        overridden.
        """
        spec = self.tree_spec(name, kind, buffer_capacity=buffer_capacity,
                              read_latency=read_latency, use_mmap=use_mmap)
        if not os.path.exists(spec.path):
            raise CatalogError(
                f"dataset {name!r} names a missing page file "
                f"{spec.path}"
            )
        return spec.open(readonly=readonly)

    def tree_spec(
        self,
        name: str,
        kind: Optional[str] = None,
        *,
        buffer_capacity: int = 64,
        read_latency: float = 0.0,
        use_mmap: Optional[bool] = None,
    ) -> TreeSpec:
        """One dataset's index as a reopenable :class:`TreeSpec`."""
        spec = self.dataset(name).index(kind).spec
        return replace(
            spec,
            metadata=dict(spec.metadata),
            buffer_capacity=buffer_capacity,
            read_latency=read_latency,
            use_mmap=spec.use_mmap if use_mmap is None else use_mmap,
        )

    # -- registration ------------------------------------------------------

    def register_dataset(
        self,
        name: str,
        points: Sequence[Sequence[float]],
        oids: Optional[Sequence[int]] = None,
        *,
        kind: str = "auto",
        extra_kinds: Sequence[str] = (),
        page_size: int = 1024,
        dimension: Optional[int] = None,
        source: Optional[str] = None,
        overwrite: bool = False,
        use_mmap: bool = False,
    ) -> DatasetEntry:
        """Build and persist one dataset's index(es).

        ``kind="auto"`` asks the planner's index dimension
        (:meth:`repro.service.planner.Planner.plan_index`) to choose
        from the dataset's points; the decision's evidence is kept in
        the index's build stats.  ``extra_kinds`` builds additional
        indexes alongside (the benchmark registers all three).  Page
        files are written next to the catalog as
        ``<name>.<kind>.pages`` (plus ``.meta.json`` sidecars for
        legacy tooling), and the catalog file is saved before
        returning.
        """
        if not name or "," in name or os.sep in name:
            raise CatalogError(
                f"dataset name {name!r} must be non-empty and free of "
                f"',' and path separators"
            )
        if name in self._datasets and not overwrite:
            raise CatalogError(
                f"dataset {name!r} is already registered "
                f"(pass overwrite=True to rebuild)"
            )
        if len(points) == 0:
            raise CatalogError(f"dataset {name!r} has no points")
        if dimension is None:
            dimension = len(points[0])
        decision = None
        if kind == "auto":
            from repro.service.planner import Planner

            decision = Planner().plan_index(points)
            kind = decision.kind
        kinds = [kind] + [k for k in extra_kinds if k != kind]
        for k in kinds:
            if k not in INDEX_KINDS:
                raise CatalogError(
                    f"unknown index kind {k!r}; expected one of "
                    f"{INDEX_KINDS} or 'auto'"
                )
        os.makedirs(self.base_dir, exist_ok=True)
        entry = DatasetEntry(
            name=name, dimension=dimension, count=len(points),
            default_kind=kind, source=source,
        )
        for k in kinds:
            pages = os.path.join(self.base_dir, f"{name}.{k}.pages")
            if os.path.exists(pages):
                os.remove(pages)
            started = time.perf_counter()
            tree = _build_index(
                k, points, oids, pages, page_size, dimension
            )
            build_s = time.perf_counter() - started
            tree.file.store.flush()
            spec = TreeSpec(pages, page_size, tree.metadata(),
                            use_mmap=use_mmap)
            build: Dict[str, Any] = {
                "build_s": round(build_s, 6),
                "nodes": tree.node_count(),
                "height": tree.height,
            }
            if decision is not None and k == kind:
                build["decision"] = decision.as_dict()
            write_sidecar(pages, spec.metadata)
            tree.file.store.close()
            entry.indexes[k] = IndexEntry(kind=k, spec=spec, build=build)
        self._datasets[name] = entry
        self.save()
        return entry

    def adopt_pages(
        self,
        name: str,
        pages_path: str,
        *,
        kind: str = "dynamic",
        metadata: Optional[Dict[str, Any]] = None,
        use_mmap: bool = False,
        allow_legacy_pages: bool = False,
        source: Optional[str] = None,
        overwrite: bool = False,
    ) -> DatasetEntry:
        """Register an existing ``.pages`` file under a catalog name.

        The migration path for pre-catalog trees (``repro-cpq build``
        output): the page file stays where it is, only the catalog
        entry is created.  ``metadata``
        defaults to the ``.meta.json`` sidecar (:func:`read_sidecar`).
        """
        if name in self._datasets and not overwrite:
            raise CatalogError(
                f"dataset {name!r} is already registered "
                f"(pass overwrite=True to replace)"
            )
        pages_path = os.path.abspath(pages_path)
        if not os.path.exists(pages_path):
            raise CatalogError(f"no page file at {pages_path}")
        if metadata is None:
            metadata = read_sidecar(pages_path)
        entry = DatasetEntry(
            name=name,
            dimension=int(metadata.get("dimension", 2)),
            count=int(metadata.get("count", 0)),
            default_kind=kind,
            source=source if source is not None else pages_path,
        )
        entry.indexes[kind] = IndexEntry(kind=kind, spec=TreeSpec(
            path=pages_path,
            page_size=int(metadata["page_size"]),
            metadata=dict(metadata),
            use_mmap=use_mmap,
            allow_legacy_pages=allow_legacy_pages,
        ))
        self._datasets[name] = entry
        self.save()
        return entry

    def remove_dataset(self, name: str, delete_files: bool = False) -> None:
        """Drop one dataset's entry (optionally its page files too)."""
        entry = self.dataset(name)
        if delete_files:
            for index in entry.indexes.values():
                for victim in (index.spec.path, meta_path(index.spec.path)):
                    if os.path.exists(victim):
                        os.remove(victim)
        del self._datasets[name]
        self.save()

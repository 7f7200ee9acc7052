"""Sort-Tile-Recursive (STR) bulk loading.

Building a paper-size tree (up to 80K points) by one-at-a-time R*
insertion is exact but slow; STR packing (Leutenegger et al.) builds an
equivalent-height tree in one pass, which is why the experiment harness
defaults to it (``REPRO_BUILD=str``; set ``dynamic`` for insertion-built
trees).  The fill factor below the maximum keeps node occupancy (and
therefore node counts and tree heights) close to a dynamically-built
R*-tree.

Each level is packed from ``(k, n)`` bound columns: one stable index
sort per slab tiles them and pages are serialised straight from them.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidCoordinateError
from repro.geometry.mbr import MBR
from repro.rtree.entries import InternalEntry, LeafEntry
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.paged_file import PagedFile

#: Default node occupancy for packed trees, chosen to match the ~70 %
#: average fill of dynamically built R*-trees.
DEFAULT_FILL = 0.7


def bulk_load(
    points: Sequence[Sequence[float]],
    oids: Optional[Sequence[int]] = None,
    config: Optional[RTreeConfig] = None,
    file: Optional[PagedFile] = None,
    fill: float = DEFAULT_FILL,
) -> RTree:
    """Build an R-tree over ``points`` with STR packing."""
    tree, columns, ids, per_node = packing_input(
        points, oids, config, file, fill
    )
    if columns is not None:
        pack(tree, columns, ids, per_node)
    return tree


def packing_input(points, oids, config, file, fill):
    """Check a packer's arguments; returns ``(tree, columns, ids,
    per_node)`` with ``points`` as ``(k, n)`` float64 columns (None
    when empty).  Raises ValueError for a point of the wrong length and
    :class:`~repro.errors.InvalidCoordinateError` for NaN or ±inf."""
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    tree = RTree(config, file)
    if len(points) == 0:
        return tree, None, None, 0
    k = tree.dimension
    try:
        rows = np.asarray(points, dtype=np.float64)
    except ValueError:  # ragged: the check below names the point
        rows = None
    if rows is None or rows.shape[1:] != (k,):
        for index, point in enumerate(points):
            if len(point) != k:
                raise ValueError(f"point {index} has {len(point)} coordinates;"
                                 f" the tree's page layout has dimension {k}")
        rows = np.asarray(points, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise InvalidCoordinateError(
            f"point {bad[0]} has a non-finite coordinate: "
            f"{tuple(rows[bad[0]].tolist())}")
    n = len(rows)
    ids = np.arange(n) if oids is None else np.asarray(oids, np.int64)
    if ids.shape != (n,):
        raise ValueError(f"{len(ids)} oids for {n} points")
    # At least 2m per packed node so a trailing small tile can always be
    # merged with its neighbour and re-split into two legal nodes.
    per_node = max(2 * tree.min_entries, int(tree.max_entries * fill))
    per_node = min(per_node, tree.max_entries)
    return tree, np.ascontiguousarray(rows.T), ids, per_node


def pack(tree: RTree, columns, ids, per_node: int, leaf_order=None):
    """Write a packed tree bottom-up, one STR-tiled level per pass,
    until one node remains.

    ``leaf_order`` (an index array) instead fixes the leaf level's
    entry order, cut into consecutive runs of ``per_node``.
    """
    lo = hi = columns
    level = 0
    while True:
        if level == 0 and leaf_order is not None:
            order, sizes = leaf_order, _runs(0, len(ids), per_node)
        else:
            order, sizes = _tiles(lo, hi, per_node)
        lo, hi, ids = _write_level(
            tree, level, lo[:, order], hi[:, order], ids[order], sizes
        )
        if len(ids) == 1:
            tree.root_id, tree.height = int(ids[0]), level + 1
            tree._count = columns.shape[1]
            return tree
        level += 1


def _runs(start: int, end: int, per_node: int) -> List[int]:
    """Sizes of consecutive ``per_node`` runs over ``[start, end)``."""
    return [min(per_node, end - i) for i in range(start, end, per_node)]


def _tiles(lo, hi, per_node: int):
    """STR order of one level's entries and its tile sizes: a stable
    sort by centre along the first axis cut into slabs, recursing along
    the next axis per slab; the last axis is cut into ``per_node`` runs.
    A span of at most ``per_node`` entries is one tile, left unsorted.
    """
    dimension, n = lo.shape
    centers = (lo + hi) / 2.0
    order = np.arange(n)
    spans = [(0, n)]  # slices of ``order`` left to tile along ``axis``
    tiles = []  # (start, size), sorted at the end into tile order
    for axis in range(dimension):
        deeper = []
        for start, end in spans:
            count = end - start
            if count <= per_node:
                tiles.append((start, count))
                continue
            span = order[start:end]
            order[start:end] = span[
                np.argsort(centers[axis, span], kind="stable")
            ]
            if axis == dimension - 1:
                tiles.extend(zip(range(start, end, per_node),
                                 _runs(start, end, per_node)))
                continue
            node_estimate = math.ceil(count / per_node)
            slabs = math.ceil(node_estimate ** (1.0 / (dimension - axis)))
            slab_size = math.ceil(count / slabs)
            deeper.extend((i, min(i + slab_size, end))
                          for i in range(start, end, slab_size))
        spans = deeper
    return order, [size for __, size in sorted(tiles)]


def _write_level(tree: RTree, level: int, lo, hi, ids, sizes):
    """Write one level's nodes, ``sizes[i]`` consecutive entries each;
    returns the node bound columns and page ids of the level above.

    A tile under m entries merges into its predecessor, re-split in
    half on overflow (``per_node >= 2m`` keeps both halves legal).
    Node bounds take the first of tied values, as ``MBR.union_all``
    does, so a ``0.0``/``-0.0`` tie keeps its entry-order sign.
    """
    merged: List[int] = []
    least, most = tree.min_entries, tree.max_entries
    for size in sizes:
        if merged and size < least:
            size += merged.pop()
            if size > most:
                merged.append(size // 2)
                size -= size // 2
        merged.append(size)
    starts = np.cumsum([0] + merged[:-1])
    ends = starts + merged
    slots = np.minimum(starts[:, None] + np.arange(max(merged)),
                       ends[:, None] - 1)
    low, high = lo[:, slots], hi[:, slots]
    node_lo = np.take_along_axis(
        low, low.argmin(axis=2)[..., None], axis=2)[..., 0]
    node_hi = np.take_along_axis(
        high, high.argmax(axis=2)[..., None], axis=2)[..., 0]
    if level == 0:
        entries = [LeafEntry(point, oid)
                   for point, oid in zip(lo.T.tolist(), ids.tolist())]
    else:
        entries = [
            InternalEntry(MBR._trusted(tuple(low), tuple(high)), child)
            for low, high, child in zip(
                lo.T.tolist(), hi.T.tolist(), ids.tolist())
        ]
    records = tree.serializer.records(level, lo, hi, ids)
    page_ids = []
    for start, end, low, high in zip(starts.tolist(), ends.tolist(),
                                     node_lo.T.tolist(), node_hi.T.tolist()):
        node = tree._new_node(level)
        node.entries = entries[start:end]
        node._mbr = MBR._trusted(tuple(low), tuple(high))
        tree.file.write_page(node.page_id, tree.serializer.
                             serialize_records(level, records[start:end]))
        page_ids.append(node.page_id)
    return node_lo, node_hi, np.array(page_ids, dtype=np.int64)

"""Grid-file packing: a uniform-grid alternative to STR bulk loading.

Corral et al. evaluate their algorithms on R*-trees, but the closest
pair machinery only needs *some* disk-based hierarchy of MBRs.  This
module packs points through a **uniform spatial grid** instead of
STR's sort-tile recursion: the workspace bounding box is cut into
equal cells per axis, cells are ordered along the Hilbert curve
(:mod:`repro.rtree.hilbert`; row-major where the 2-d curve does not
apply), points are sorted by cell id (then by position within a cell
for determinism), and consecutive runs fill leaves at the same
``fill`` factor ``rtree/bulk.py`` uses.  Upper levels reuse STR tiling
over the leaf MBRs (both kinds are written by
:func:`repro.rtree.bulk.pack`), so the result is a structurally valid
tree in the same page format -- every traversal, shard worker and
snapshot facility works on it unchanged.

Why bother?  Grid assignment is one pass of arithmetic (no recursive
multi-axis sorting) and on *uniformly* distributed data the
curve-ordered cells produce compact leaf runs with little overlap --
query I/O at parity with STR (``benchmarks/bench_catalog.py``
measures this).  On clustered or skewed data most cells are empty
while a few overflow, so runs spanning many cells produce elongated,
overlapping leaves and query I/O degrades; the cost model's
:func:`~repro.analysis.cost_model.grid_occupancy_cv` skew statistic is
how the planner predicts which regime a dataset is in (see
``docs/CATALOG.md``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro.rtree.bulk import DEFAULT_FILL, pack, packing_input
from repro.rtree.hilbert import hilbert_index
from repro.rtree.tree import RTree, RTreeConfig
from repro.storage.paged_file import PagedFile

#: Cell-resolution multiplier of :func:`grid_load` over the one-cell-
#: per-leaf baseline of :func:`grid_cells_per_axis`.  Finer cells make
#: the Hilbert cell order approximate a point-level curve sort, so
#: consecutive full-leaf runs stay compact instead of drifting across
#: coarse cell boundaries (the difference between STR-parity and ~2x
#: STR's query I/O on uniform data).
PACK_REFINEMENT = 4


def grid_cells_per_axis(n: int, per_node: int, dimension: int) -> int:
    """Default grid resolution: about one cell per packed leaf.

    ``ceil((n / per_node) ** (1/d))`` cells per axis makes the expected
    occupancy of a cell one leaf's worth of points, so on uniform data
    each leaf covers roughly one cell.
    """
    if n <= 0:
        return 1
    leaves = max(1, math.ceil(n / per_node))
    return max(1, math.ceil(leaves ** (1.0 / dimension)))


def _cell_indexes(columns: np.ndarray, cells: int) -> np.ndarray:
    """Per-axis grid cell of each point of ``(k, n)`` columns.

    The points' bounding box is cut into ``cells`` per axis; indexes
    are clamped to the grid and a zero-width axis is all cell 0.
    """
    lows = columns.min(axis=1, keepdims=True)
    spans = columns.max(axis=1, keepdims=True) - lows
    flat = spans[:, 0] <= 0.0
    spans[flat] = 1.0
    indexes = ((columns - lows) / spans * cells).astype(np.int64)
    indexes[flat] = 0
    return np.clip(indexes, 0, cells - 1)


def _row_major(indexes: np.ndarray, cells: int) -> np.ndarray:
    """Row-major cell ids from :func:`_cell_indexes`."""
    ids = np.zeros(indexes.shape[1], dtype=np.int64)
    for axis_indexes in indexes:
        ids = ids * cells + axis_indexes
    return ids


def grid_load(
    points: Sequence[Sequence[float]],
    oids: Optional[Sequence[int]] = None,
    config: Optional[RTreeConfig] = None,
    file: Optional[PagedFile] = None,
    fill: float = DEFAULT_FILL,
    cells_per_axis: Optional[int] = None,
) -> RTree:
    """Build an R-tree over ``points`` by uniform-grid packing.

    Same signature, input checks and page format as
    :func:`repro.rtree.bulk.bulk_load`; only the leaf-level point
    ordering differs (grid cells instead of STR tiles).
    ``cells_per_axis`` overrides the resolution
    :func:`grid_cells_per_axis` derives from the point count.
    """
    tree, columns, ids, per_node = packing_input(
        points, oids, config, file, fill
    )
    if columns is None:
        return tree
    if cells_per_axis is None:
        cells_per_axis = PACK_REFINEMENT * grid_cells_per_axis(
            columns.shape[1], per_node, tree.dimension
        )
    if tree.dimension == 2:
        # Hilbert order over the cells: consecutive cell ids are
        # spatially adjacent, so full-leaf runs form compact blobs.
        order = max(1, (cells_per_axis - 1).bit_length())
        x, y = _cell_indexes(columns, 1 << order).tolist()
        keys = [hilbert_index(i, j, order=order) for i, j in zip(x, y)]
    else:
        # The curve is 2-d; other dimensions keep row-major cell ids.
        keys = _row_major(_cell_indexes(columns, cells_per_axis),
                          cells_per_axis)
    # Leaves: consecutive runs of the grid order, then position (a
    # stable sort, for determinism); upper levels: STR tiling over the
    # leaf MBRs.
    leaf_order = np.lexsort((*columns[::-1], keys))
    return pack(tree, columns, ids, per_node, leaf_order)


def grid_occupancy(
    points: Sequence[Sequence[float]],
    cells_per_axis: int,
    dimension: int = 2,
) -> Dict[int, int]:
    """Points per (occupied) grid cell, keyed by row-major cell id."""
    if cells_per_axis < 1:
        raise ValueError("cells_per_axis must be >= 1")
    if len(points) == 0:
        return {}
    columns = np.asarray(points, dtype=np.float64)[:, :dimension].T
    cells, counts = np.unique(
        _row_major(_cell_indexes(columns, cells_per_axis), cells_per_axis),
        return_counts=True,
    )
    return dict(zip(cells.tolist(), counts.tolist()))

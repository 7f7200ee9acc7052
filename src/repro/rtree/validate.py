"""Structural invariant checking.

:func:`validate` walks a tree and asserts every R-tree invariant the
test suite relies on:

* every internal entry's MBR is exactly the union of its child's
  entry MBRs (tight directory rectangles -- this is what makes
  MINMAXDIST a sound bound);
* all leaves are at level 0 and at the same depth (balance);
* node occupancy is within [m, M] (root excepted);
* the recorded point count matches the number of leaf entries;
* levels decrease by exactly one per tree edge.

Raises :class:`RTreeInvariantError` with a descriptive message on the
first violation; returns summary statistics otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.mbr import MBR
from repro.rtree.tree import RTree


class RTreeInvariantError(AssertionError):
    """An R-tree structural invariant was violated."""


@dataclass
class TreeSummary:
    """Shape of a tree that passed :func:`validate`: height and node,
    leaf and point-entry counts."""

    height: int
    nodes: int
    leaves: int
    entries: int


def validate(tree: RTree) -> TreeSummary:
    """Check all invariants; return a summary on success."""
    if tree.root_id is None:
        if len(tree) != 0 or tree.height != 0:
            raise RTreeInvariantError("empty tree with nonzero count/height")
        return TreeSummary(0, 0, 0, 0)

    root = tree.read_node(tree.root_id)
    if root.level != tree.height - 1:
        raise RTreeInvariantError(
            f"root level {root.level} != height-1 ({tree.height - 1})"
        )
    if len(root.entries) == 0:
        raise RTreeInvariantError("root has no entries")
    if not root.is_leaf and len(root.entries) < 2:
        raise RTreeInvariantError("internal root must have >= 2 entries")

    counters = {"nodes": 0, "leaves": 0, "entries": 0}
    _check_node(tree, root, is_root=True, counters=counters)
    if counters["entries"] != len(tree):
        raise RTreeInvariantError(
            f"tree reports {len(tree)} points but leaves hold "
            f"{counters['entries']}"
        )
    return TreeSummary(
        tree.height, counters["nodes"], counters["leaves"],
        counters["entries"],
    )


def _check_node(tree: RTree, node, is_root: bool, counters) -> MBR:
    counters["nodes"] += 1
    if not node.entries:
        raise RTreeInvariantError(f"node {node.page_id} is empty")
    if not is_root and len(node.entries) < tree.min_entries:
        raise RTreeInvariantError(
            f"node {node.page_id} underfull: {len(node.entries)} < "
            f"{tree.min_entries}"
        )
    if len(node.entries) > tree.max_entries:
        raise RTreeInvariantError(
            f"node {node.page_id} overfull: {len(node.entries)} > "
            f"{tree.max_entries}"
        )
    if node.is_leaf:
        counters["leaves"] += 1
        counters["entries"] += len(node.entries)
        return node.mbr()

    actual = None
    for entry in node.entries:
        child = tree.read_node(entry.child_id)
        if child.level != node.level - 1:
            raise RTreeInvariantError(
                f"child {child.page_id} at level {child.level} under "
                f"node {node.page_id} at level {node.level}"
            )
        child_mbr = _check_node(tree, child, is_root=False, counters=counters)
        if entry.mbr != child_mbr:
            raise RTreeInvariantError(
                f"entry MBR {entry.mbr} for child {child.page_id} is not "
                f"the tight union {child_mbr}"
            )
        actual = child_mbr if actual is None else actual.union(child_mbr)
    assert actual is not None
    return actual

"""R-tree nodes.

A :class:`Node` is the decoded form of one disk page: its level (0 for
leaves), its entries, and NumPy arrays of the entry geometry: each
bound once, as a C-contiguous ``(k, n)`` array (a leaf's points serve
as both).  ``lo_array`` / ``hi_array`` / ``points_array`` return their
``(n, k)`` transposed views, which the CPQ algorithms feed to the
vectorised metrics; they are invalidated whenever the entries change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry.mbr import MBR
from repro.rtree.entries import InternalEntry, LeafEntry

Entry = Union[LeafEntry, InternalEntry]


class Node:
    """One R-tree node (page image, decoded)."""

    __slots__ = ("page_id", "level", "entries", "_lo", "_hi", "_mbr", "_box")

    def __init__(self, page_id: int, level: int, entries: Optional[List[Entry]] = None):
        self.page_id = page_id
        self.level = level
        self.entries: List[Entry] = entries if entries is not None else []
        self._lo: Optional[np.ndarray] = None
        self._hi: Optional[np.ndarray] = None
        self._mbr: Optional[MBR] = None
        self._box: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    # -- geometry views -----------------------------------------------------

    def mbr(self) -> MBR:
        """The tightest MBR covering all entries (the node's directory MBR)."""
        if self._mbr is None:
            if not self.entries:
                raise ValueError("empty node has no MBR")
            self._mbr = MBR.union_all(e.mbr for e in self.entries)
        return self._mbr

    def box_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The node's MBR as ``(1, k)`` lo / hi arrays (built once)."""
        if self._box is None:
            mbr = self.mbr()
            self._box = (np.array([mbr.lo], dtype=float),
                         np.array([mbr.hi], dtype=float))
        return self._box

    def lo_array(self) -> np.ndarray:
        """Per-entry MBR lows, shape ``(len(self), k)``."""
        self._build_arrays()
        return self._lo.T

    def hi_array(self) -> np.ndarray:
        """Per-entry MBR highs, shape ``(len(self), k)``."""
        self._build_arrays()
        return self._hi.T

    def points_array(self) -> np.ndarray:
        """Leaf point coordinates, shape ``(len(self), k)``."""
        if not self.is_leaf:
            raise ValueError("points_array is only defined for leaves")
        self._build_arrays()
        return self._lo.T

    def _build_arrays(self) -> None:
        if self._lo is not None:
            return
        # ``_lo`` doubles as the "built" guard, so it must be published
        # last: concurrent readers that observe it non-None must also
        # see ``_hi`` (nodes are shared read-only between queries).
        if self.is_leaf:
            pts = np.array([e.point for e in self.entries],
                           dtype=float).T.copy()
            self._hi = pts
            self._lo = pts
        else:
            self._hi = np.array([e.mbr.hi for e in self.entries],
                                dtype=float).T.copy()
            self._lo = np.array([e.mbr.lo for e in self.entries],
                                dtype=float).T.copy()

    # -- mutation ----------------------------------------------------------------

    def add(self, entry: Entry) -> None:
        self.entries.append(entry)
        self.invalidate_caches()

    def remove_at(self, index: int) -> Entry:
        entry = self.entries.pop(index)
        self.invalidate_caches()
        return entry

    def replace_entries(self, entries: Sequence[Entry]) -> None:
        self.entries = list(entries)
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        self._lo = None
        self._hi = None
        self._mbr = None
        self._box = None

    # -- (de)serialisation adapters ------------------------------------------

    def to_tuples(self):
        """The serializer's neutral representation of this node."""
        if self.is_leaf:
            return [(e.point, e.oid) for e in self.entries]
        return [(e.mbr.lo, e.mbr.hi, e.child_id) for e in self.entries]

    @classmethod
    def from_tuples(cls, page_id: int, level: int, tuples) -> "Node":
        if level == 0:
            entries: List[Entry] = [
                LeafEntry(point, oid) for point, oid in tuples
            ]
        else:
            entries = [
                InternalEntry(MBR(lo, hi), child) for lo, hi, child in tuples
            ]
        return cls(page_id, level, entries)

    @classmethod
    def from_arrays(
        cls,
        page_id: int,
        level: int,
        tuples,
        lo: Optional[np.ndarray],
        hi: Optional[np.ndarray],
    ) -> "Node":
        """Build a node with its geometry arrays pre-attached.

        ``lo`` / ``hi`` come from ``NodeSerializer.deserialize_arrays``:
        ``(n, k)`` transposed views of C-contiguous ``(k, n)`` arrays
        that must mirror what ``_build_arrays`` would compute from
        ``tuples`` (for leaves: one array for both).  Attaching them
        here skips the lazy per-entry rebuild on the query path; any
        later mutation still invalidates them as usual.
        """
        node = cls.from_tuples(page_id, level, tuples)
        if lo is not None and len(node.entries):
            node._hi = hi.T
            node._lo = lo.T
        return node

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"

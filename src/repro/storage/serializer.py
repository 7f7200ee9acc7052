"""Byte-level node (de)serialisation with page checksums.

Pages hold a small header followed by fixed-size entry slots:

* header: ``level`` (int32; 0 for leaves), ``count`` (int32),
  ``version`` (uint16, see
  :data:`~repro.storage.page.PAGE_FORMAT_VERSION`), a reserved uint16,
  and a CRC32 checksum (uint32) -- 16 bytes total.
* leaf entry: ``dimension`` float64 coordinates + int64 object id.
* internal entry: ``2 * dimension`` float64 MBR bounds (lows then
  highs) + int64 child page id.

Entries are padded to the layout's fixed slot size so capacity
arithmetic (and the paper's M = 21 for 1 KiB pages) is exact.  The
serializer is deliberately independent of the R-tree classes: it deals
in plain tuples (:mod:`repro.rtree.node` adapts them) or coordinate
columns (the packers), and both go through one structured slot dtype.

The checksum covers the whole page with the CRC field itself zeroed.
Every page this serializer writes is version 1 with the
:data:`~repro.storage.page.PAGE_MAGIC` stamp in the reserved word; a
version-1 page whose checksum does not match raises
:class:`repro.errors.PageCorruptionError` -- corruption is loud, never
a silently wrong node.  Version-0 pages (written before checksumming;
header tail is all zeros) carry no checksum and are only accepted when
the serializer was opened with ``allow_legacy=True``: by default a
zeroed version word -- which is exactly what a torn header write or a
version-field bit-flip produces -- is treated as corruption rather
than silently skipping validation, and even in legacy mode a version-0
header whose magic word is non-zero is rejected as a damaged v1 page.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import PageCorruptionError
from repro.storage.page import (
    HEADER_SIZE,
    PAGE_FORMAT_VERSION,
    PAGE_MAGIC,
    PageLayout,
)

#: (coords, object_id)
LeafEntryTuple = Tuple[Tuple[float, ...], int]
#: (lo, hi, child_page_id)
InternalEntryTuple = Tuple[Tuple[float, ...], Tuple[float, ...], int]

#: level, count, version, reserved, crc32 -- 16 bytes.
_HEADER = struct.Struct("<iiHHI")
assert _HEADER.size == HEADER_SIZE

#: Byte span of the CRC32 field inside the header.
_CRC_OFFSET = 12
_CRC_END = 16


def page_checksum(page: bytes) -> int:
    """CRC32 of a page image with the checksum field zeroed."""
    return zlib.crc32(
        page[:_CRC_OFFSET] + b"\x00\x00\x00\x00" + page[_CRC_END:]
    ) & 0xFFFFFFFF


class PageOverflowError(ValueError):
    """Raised when more entries are serialised than the page can hold."""


class NodeSerializer:
    """Serialises nodes of a fixed dimension into fixed-size pages.

    ``allow_legacy`` opts in to reading version-0 (pre-checksum) pages;
    leave it off -- the default -- unless the page file is known to
    predate checksumming, because a damaged version-1 header can look
    exactly like a legacy one.
    """

    def __init__(self, layout: PageLayout, allow_legacy: bool = False):
        self.layout = layout
        self.allow_legacy = allow_legacy
        k = layout.dimension
        # Structured views of one entry slot (padding included in
        # itemsize), so whole pages encode and decode as one array.
        self._leaf_dtype = np.dtype(
            {
                "names": ["coords", "oid"],
                "formats": [("<f8", (k,)), "<i8"],
                "itemsize": layout.entry_size,
            }
        )
        self._internal_dtype = np.dtype(
            {
                "names": ["lo", "hi", "child"],
                "formats": [("<f8", (k,)), ("<f8", (k,)), "<i8"],
                "itemsize": layout.entry_size,
            }
        )

    # -- serialisation -----------------------------------------------------

    def serialize_leaf(self, entries: Sequence[LeafEntryTuple]) -> bytes:
        """Pack a leaf node (level 0) into one page."""
        coords = self._columns([entry[0] for entry in entries])
        oids = [entry[1] for entry in entries]
        return self.serialize_records(0, self.records(0, coords, None, oids))

    def serialize_internal(
        self, level: int, entries: Sequence[InternalEntryTuple]
    ) -> bytes:
        """Pack an internal node (level >= 1) into one page."""
        if level < 1:
            raise ValueError("internal nodes have level >= 1")
        lo = self._columns([entry[0] for entry in entries])
        hi = self._columns([entry[1] for entry in entries])
        children = [entry[2] for entry in entries]
        return self.serialize_records(
            level, self.records(level, lo, hi, children)
        )

    def _columns(self, rows: list) -> np.ndarray:
        """Coordinate rows as ``(k, len(rows))`` float64 columns."""
        return np.array(rows, dtype=np.float64).reshape(
            len(rows), self.layout.dimension
        ).T

    def records(self, level: int, lo, hi, ids) -> np.ndarray:
        """Zero-padded entry slots from ``(k, n)`` bound columns (a
        leaf's points as ``lo``) and ``n`` object or child page ids;
        page ``records[i:j]`` with :meth:`serialize_records`."""
        if level == 0:
            records = np.zeros(len(ids), dtype=self._leaf_dtype)
            records["coords"] = lo.T
            records["oid"] = ids
        else:
            records = np.zeros(len(ids), dtype=self._internal_dtype)
            records["lo"] = lo.T
            records["hi"] = hi.T
            records["child"] = ids
        return records

    def serialize_records(self, level: int, records: np.ndarray) -> bytes:
        """Pack one node's slots from :meth:`records` into a page."""
        return self._page(level, len(records), records.tobytes())

    def _page(self, level: int, count: int, body: bytes) -> bytes:
        """The one page writer: header, ``body`` slots, zero tail, CRC."""
        if count > self.layout.max_entries:
            raise PageOverflowError(
                f"{count} entries exceed capacity {self.layout.max_entries}"
            )
        page = _HEADER.pack(
            level, count, PAGE_FORMAT_VERSION, PAGE_MAGIC, 0
        ) + body
        page += b"\x00" * (self.layout.page_size - len(page))
        crc = struct.pack("<I", page_checksum(page))
        return page[:_CRC_OFFSET] + crc + page[_CRC_END:]

    # -- deserialisation -----------------------------------------------------

    def _read_header(self, page: bytes) -> Tuple[int, int]:
        if len(page) != self.layout.page_size:
            raise PageCorruptionError(
                f"page of {len(page)} bytes; expected {self.layout.page_size}"
            )
        level, count, version, magic, crc = _HEADER.unpack_from(page, 0)
        if version == PAGE_FORMAT_VERSION:
            actual = page_checksum(page)
            if actual != crc:
                raise PageCorruptionError(
                    f"corrupt page: CRC32 mismatch (stored {crc:#010x}, "
                    f"computed {actual:#010x})"
                )
        elif version == 0:
            # Version 0 is the pre-checksum layout (header tail all
            # zero).  A zeroed version word is also what a torn header
            # write or a version-field bit-flip produces, so acceptance
            # is opt-in -- and a v1 page unmasked by its magic stamp is
            # rejected even then.
            if magic != 0:
                raise PageCorruptionError(
                    f"corrupt page: version 0 but magic word "
                    f"{magic:#06x} is set (damaged version-1 header)"
                )
            if not self.allow_legacy:
                raise PageCorruptionError(
                    "corrupt page: version 0 (legacy unchecksummed "
                    "layout) not accepted; open the serializer with "
                    "allow_legacy=True to read pre-checksum page files"
                )
        else:
            # Anything else is damage or a future format.
            raise PageCorruptionError(
                f"corrupt page: unknown format version {version}"
            )
        if level < 0:
            raise PageCorruptionError(
                f"corrupt page: negative level {level}"
            )
        if not 0 <= count <= self.layout.max_entries:
            raise PageCorruptionError(
                f"corrupt page: entry count {count} outside "
                f"[0, {self.layout.max_entries}]"
            )
        return level, count

    def deserialize(self, page: bytes):
        """Unpack one page.

        Returns ``(level, entries)`` where entries are leaf tuples when
        ``level == 0`` and internal tuples otherwise.
        """
        level, entries, __, __ = self.deserialize_arrays(page)
        return level, entries

    def deserialize_arrays(self, page: bytes):
        """Unpack one page together with its entry-MBR arrays.

        Returns ``(level, entries, lo, hi)`` where ``entries`` matches
        :meth:`deserialize` and ``lo`` / ``hi`` are ``(count, k)``
        float64 transposed views of C-contiguous ``(k, count)`` arrays
        of the per-entry MBR bounds (the layout ``Node`` keeps),
        decoded in bulk via a structured dtype.  For leaves both names
        refer to the *same* coordinate array (points are degenerate
        rectangles), matching what ``Node._build_arrays`` would lazily
        produce.  Empty pages return ``None`` arrays.
        """
        level, count = self._read_header(page)
        if count == 0:
            return level, [], None, None
        if level == 0:
            records = np.frombuffer(
                page, dtype=self._leaf_dtype, count=count, offset=HEADER_SIZE
            )
            pts = records["coords"].T.astype(np.float64, order="C").T
            entries: List = [
                (tuple(coords), oid)
                for coords, oid in zip(pts.tolist(), records["oid"].tolist())
            ]
            return level, entries, pts, pts
        records = np.frombuffer(
            page, dtype=self._internal_dtype, count=count, offset=HEADER_SIZE
        )
        lo = records["lo"].T.astype(np.float64, order="C").T
        hi = records["hi"].T.astype(np.float64, order="C").T
        entries = [
            (tuple(low), tuple(high), child)
            for low, high, child in zip(
                lo.tolist(), hi.tolist(), records["child"].tolist()
            )
        ]
        return level, entries, lo, hi

"""Page stores: where serialised pages live.

Two implementations share one protocol:

* :class:`MemoryPageStore` -- a dict of page images; the default for
  experiments (the paper's cost metric is simulated disk accesses, not
  real ones, so experiments do not need a real file).
* :class:`FilePageStore` -- a real page-aligned file on disk, proving
  the byte layout round-trips and enabling persistent trees.

Both keep a free list so deleted pages are reused, and both support
``ensure_allocated`` so write-ahead-log replay (:mod:`repro.storage.
wal`) can re-apply page images to a store that never saw the original
allocation.

``FilePageStore`` reads and writes with ``os.pread`` / ``os.pwrite`` on
one descriptor, so no operation uses or moves a shared file position
and readers on other threads cannot race a writer for one.  It also
offers an ``mmap``-backed read path (``use_mmap=True``): warm page
reads become one slice of a shared memory mapping instead of a
``pread`` system call.  ``benchmarks/bench_mutation.py``
measures the difference; ``docs/STORAGE.md`` discusses when it pays.
"""

from __future__ import annotations

import mmap
import os
from typing import Dict, List, Optional, Protocol

from repro.errors import PageCorruptionError


class PageStore(Protocol):
    """Minimal page-granular storage interface."""

    page_size: int

    def allocate(self) -> int:
        """Reserve a new page id."""
        ...

    def read(self, page_id: int) -> bytes:
        """Return the page image (exactly ``page_size`` bytes)."""
        ...

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image."""
        ...

    def free(self, page_id: int) -> None:
        """Release a page for reuse."""
        ...

    def ensure_allocated(self, page_id: int) -> None:
        """Make a specific page id allocated (WAL-replay entry point)."""
        ...

    def __len__(self) -> int:
        """Number of live (allocated, not freed) pages."""
        ...


class MemoryPageStore:
    """In-memory page store used by the experiment harness."""

    def __init__(self, page_size: int = 1024):
        self.page_size = page_size
        self._pages: Dict[int, Optional[bytes]] = {}
        self._free: List[int] = []
        self._next_id = 0

    def allocate(self) -> int:
        """Reserve a new page id (free-list ids are reused first)."""
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        self._pages[page_id] = None
        return page_id

    def ensure_allocated(self, page_id: int) -> None:
        """Mark ``page_id`` allocated regardless of history.

        WAL replay applies page images by id; the store must accept
        ids it never handed out (they were allocated by the writer
        that crashed).
        """
        if page_id in self._pages:
            return
        if page_id in self._free:
            self._free.remove(page_id)
        self._next_id = max(self._next_id, page_id + 1)
        self._pages[page_id] = None

    def read(self, page_id: int) -> bytes:
        """Return the page image; raises ``KeyError`` when unwritten."""
        data = self._pages.get(page_id)
        if data is None:
            raise KeyError(f"page {page_id} not written or not allocated")
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image (must be exactly ``page_size`` bytes)."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} not allocated")
        if len(data) != self.page_size:
            raise ValueError(
                f"page image of {len(data)} bytes; expected {self.page_size}"
            )
        self._pages[page_id] = data

    def free(self, page_id: int) -> None:
        """Release a page for reuse."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} not allocated")
        del self._pages[page_id]
        self._free.append(page_id)

    def __len__(self) -> int:
        return len(self._pages)


class FilePageStore:
    """Page store backed by a real file.

    The file grows in page-size units; a free list is kept in memory
    (it could be persisted in page 0, but persistence of the free list
    is not needed by any experiment -- crash recovery rebuilds it from
    the WAL's FREE records instead).

    Every page transfer is one positioned system call (``os.pread`` /
    ``os.pwrite``) on a single descriptor: there is no file position to
    share and no user-space write buffer, so a thread reading one page
    while another rewrites a different page cannot get a short or
    misplaced read, and a write is visible to every reader (mapped or
    not) as soon as it returns.

    ``use_mmap`` switches warm reads to a shared memory mapping of the
    file: a page read becomes one slice instead of a ``pread``.  The
    mapping is rebuilt lazily whenever the file has grown past it.
    """

    def __init__(self, path: str, page_size: int = 1024,
                 readonly: bool = False, use_mmap: bool = False):
        self.page_size = page_size
        self.path = path
        self.readonly = readonly
        self.use_mmap = use_mmap
        # Read-only handles are the shard workers': each process opens
        # its own descriptor on the shared file.
        flags = os.O_RDONLY if readonly else os.O_RDWR | os.O_CREAT
        self._fd = os.open(path, flags, 0o666)
        size = os.fstat(self._fd).st_size
        if size % page_size:
            os.close(self._fd)
            raise ValueError(
                f"{path} is {size} bytes, not a multiple of {page_size}"
            )
        self._next_id = size // page_size
        self._allocated = set(range(self._next_id))
        self._free: List[int] = []
        self._mmap: Optional[mmap.mmap] = None

    def allocate(self) -> int:
        """Reserve a new page id, growing the file if none are free."""
        self._check_writable()
        if self._free:
            page_id = self._free.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
            self._pwrite(b"\x00" * self.page_size, page_id * self.page_size)
        self._allocated.add(page_id)
        return page_id

    def ensure_allocated(self, page_id: int) -> None:
        """Make ``page_id`` allocated, extending the file as needed.

        The WAL-replay entry point: recovery re-applies images for
        pages allocated by the crashed writer, which this (fresh)
        handle never handed out.
        """
        self._check_writable()
        if page_id in self._allocated:
            return
        if page_id in self._free:
            self._free.remove(page_id)
        if page_id >= self._next_id:
            self._pwrite(
                b"\x00" * (page_id + 1 - self._next_id) * self.page_size,
                self._next_id * self.page_size,
            )
            self._next_id = page_id + 1
        self._allocated.add(page_id)

    def read(self, page_id: int) -> bytes:
        """Return the page image, via the mapping when ``use_mmap``."""
        self._check(page_id)
        start = page_id * self.page_size
        end = start + self.page_size
        if self.use_mmap:
            if self._mmap is None or end > len(self._mmap):
                self._remap()  # the file grew past the mapping
            if self._mmap is not None and end <= len(self._mmap):
                return self._mmap[start:end]
            # The file is genuinely shorter: the pread below raises.
        data = os.pread(self._fd, self.page_size, start)
        if len(data) != self.page_size:
            # A truncated file (partial write, lost tail) must fail
            # loudly here, not as a confusing serializer error later.
            raise PageCorruptionError(
                f"short read of page {page_id} from {self.path}: got "
                f"{len(data)} bytes, expected {self.page_size}",
                page_id=page_id,
            )
        return data

    def _remap(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        size = os.fstat(self._fd).st_size
        if size:
            self._mmap = mmap.mmap(self._fd, size, access=mmap.ACCESS_READ)

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image (must be exactly ``page_size`` bytes)."""
        self._check_writable()
        self._check(page_id)
        if len(data) != self.page_size:
            raise ValueError(
                f"page image of {len(data)} bytes; expected {self.page_size}"
            )
        self._pwrite(data, page_id * self.page_size)

    def _pwrite(self, data: bytes, offset: int) -> None:
        """``os.pwrite`` until every byte is written (it may write fewer)."""
        view = memoryview(data)
        while view:
            written = os.pwrite(self._fd, view, offset)
            view = view[written:]
            offset += written

    def free(self, page_id: int) -> None:
        """Release a page for reuse."""
        self._check_writable()
        self._check(page_id)
        self._allocated.remove(page_id)
        self._free.append(page_id)

    def _check(self, page_id: int) -> None:
        if page_id not in self._allocated:
            raise KeyError(f"page {page_id} not allocated")

    def _check_writable(self) -> None:
        if self.readonly:
            raise PermissionError(f"{self.path} opened read-only")

    def __len__(self) -> int:
        return len(self._allocated)

    def flush(self) -> None:
        """No-op: :meth:`write` hands each page to the OS before it
        returns.  Kept so callers can flush any store alike."""

    def close(self) -> None:
        """Unmap (when mapped) and close the descriptor."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

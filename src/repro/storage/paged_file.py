"""A paged file: store + buffer + statistics, as one object.

Each R-tree owns one :class:`PagedFile`.  Query algorithms fetch node
pages through :meth:`read_page`, which routes through the LRU buffer
and updates :class:`~repro.storage.stats.IOStats`; construction writes
through :meth:`write_page`.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.storage.buffer import LRUBuffer, RetryPolicy
from repro.storage.stats import IOStats
from repro.storage.store import MemoryPageStore, PageStore


class PagedFile:
    """Buffered, instrumented access to a :class:`PageStore`.

    ``read_latency`` (seconds) is slept on every buffer miss, modelling
    the device seek the paper's disk-access metric stands for.  The
    sleep happens outside the buffer lock and releases the GIL, so
    concurrent queries (see :mod:`repro.service`) overlap their
    simulated I/O waits exactly as threads overlap real disk waits.

    ``retry_policy`` overrides the buffer's transient-fault backoff
    schedule (see :class:`repro.storage.buffer.RetryPolicy`); the
    module default is used when omitted.
    """

    def __init__(
        self,
        store: Optional[PageStore] = None,
        buffer_capacity: int = 0,
        page_size: int = 1024,
        buffer_policy: str = "lru",
        read_latency: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.store: PageStore = (
            store if store is not None else MemoryPageStore(page_size)
        )
        self.read_latency = read_latency
        self.stats = IOStats()
        if buffer_policy == "lru":
            self.buffer = LRUBuffer(buffer_capacity, self.stats)
        else:
            # Imported lazily: policies.py subclasses LRUBuffer.
            from repro.storage.policies import make_buffer

            self.buffer = make_buffer(
                buffer_policy, buffer_capacity, self.stats
            )
        if retry_policy is not None:
            self.buffer.retry_policy = retry_policy

    @property
    def page_size(self) -> int:
        return self.store.page_size

    def allocate(self) -> int:
        return self.store.allocate()

    def read_page(self, page_id: int) -> bytes:
        """Fetch a page, counting a disk access on buffer miss."""
        return self.buffer.read(page_id, self._load)

    def _load(self, page_id: int) -> bytes:
        if self.read_latency > 0.0:
            time.sleep(self.read_latency)
        return self.store.read(page_id)

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write a page through the buffer, counting one disk write."""
        self.store.write(page_id, data)
        self.buffer.put(page_id, data)
        self.stats.disk_writes += 1

    def free_page(self, page_id: int) -> None:
        self.store.free(page_id)
        self.buffer.invalidate(page_id)

    def set_buffer_capacity(self, capacity: int) -> None:
        """Reconfigure the LRU buffer (used by the buffer-size sweeps)."""
        self.buffer.resize(capacity)

    def reset_for_query(self) -> None:
        """Zero the counters and cold-start the buffer."""
        self.stats.reset()
        self.buffer.clear()


def split_buffer(file_p: PagedFile, file_q: PagedFile, pages: int) -> None:
    """Split a two-tree query's buffer budget: half the pages per
    file, or all of them when one file serves both sides."""
    share = 1 if file_p is file_q else 2
    file_p.set_buffer_capacity(pages // share)
    file_q.set_buffer_capacity(pages // share)

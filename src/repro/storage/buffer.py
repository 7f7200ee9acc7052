"""LRU buffer pool with hit/miss accounting and transient-fault retry.

Section 4.3.3 of the paper studies algorithm sensitivity to an LRU
buffer of B pages, "dedicated to each R-tree as two equal portions of
B/2 pages".  Each tree therefore owns one :class:`LRUBuffer`; a read
that finds its page in the buffer is free, anything else counts as one
disk access.  Capacity 0 disables caching entirely (the paper's "zero
buffer" configuration).

The buffer is thread-safe: an internal :class:`threading.RLock` guards
every operation, so concurrent queries (see :mod:`repro.service`) can
share one pool.  The loader callback of :meth:`read` runs *outside*
the lock -- a slow (or latency-simulated) disk read must not serialise
every other thread's buffer traffic.  Replacement-policy subclasses
customise behaviour through three hooks (:meth:`_touch`,
:meth:`_register`, :meth:`_evict_one`) rather than overriding the
locked entry points, which keeps them thread-safe for free and makes
:meth:`resize` evict with the same policy as normal admission.

A miss whose loader raises :class:`repro.errors.TransientIOError` is
retried with bounded exponential backoff (:class:`RetryPolicy`);
retries count in :attr:`IOStats.read_retries`, exhausted reads in
:attr:`IOStats.read_failures`.  A failed load leaves the buffer
untouched -- no phantom frame is admitted and no hit/miss counter
moves until a load actually succeeds.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import TransientIOError
from repro.storage.stats import IOStats


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with optional seeded jitter.

    Serves both retrying tiers: page reads (:data:`DEFAULT_RETRY_POLICY`)
    and shard chunks (:data:`repro.net.retry.SHARD_RETRY_POLICY`).
    ``max_attempts`` counts the initial try: 4 means one read plus up
    to three retries.  ``sleep`` is injectable so tests (and the fault
    harness) run without wall-clock delays.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.050
    #: Fraction of the computed delay randomised away (0 disables).
    jitter: float = 0.0
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, failures: int,
              rng: Optional[random.Random] = None) -> float:
        """Backoff before the retry following this many failures,
        shortened by up to ``jitter`` of itself when ``rng`` is given."""
        if failures < 1:
            return 0.0
        delay = min(
            self.max_delay_s,
            self.base_delay_s * (self.multiplier ** (failures - 1)),
        )
        if self.jitter and rng is not None:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


#: The page-read schedule: 4 attempts, 1 ms doubling to a 50 ms cap,
#: no jitter.  Applied by buffers constructed without an explicit one.
DEFAULT_RETRY_POLICY = RetryPolicy()


class LRUBuffer:
    """Fixed-capacity page cache with least-recently-used eviction."""

    def __init__(self, capacity: int, stats: Optional[IOStats] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0")
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        #: Backoff schedule applied when a loader raises
        #: :class:`~repro.errors.TransientIOError`.
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        #: Optional read observer, called as ``on_read(page_id, hit)``
        #: after every :meth:`read`, outside the buffer lock.  Installed
        #: by :meth:`repro.obs.Tracer.watch_buffer` to attribute page
        #: I/O to the reading thread's trace span; ``None`` (the
        #: default) costs one predicate test per read.
        self.on_read: Optional[Callable[[int, bool], None]] = None
        #: Lock acquisitions on the read path that found the lock held
        #: by another thread and had to wait.  A cheap contention gauge
        #: for the parallel executor and service dashboards; updated
        #: racily (observability, not accounting).
        self.contentions = 0
        self._pages: "OrderedDict[int, bytes]" = OrderedDict()
        self._lock = threading.RLock()

    def _acquire_counted(self) -> None:
        if self._lock.acquire(blocking=False):
            return
        self.contentions += 1
        self._lock.acquire()

    def read(self, page_id: int, loader: Callable[[int], bytes]) -> bytes:
        """Return the page, loading it via ``loader`` on a miss.

        Two threads missing on the same page concurrently both call the
        loader and both count a disk access -- the same double fault a
        real unsynchronised disk cache would take.

        Transient loader faults are retried per :attr:`retry_policy`.
        A load that ultimately fails propagates the error with the
        buffer exactly as it was: nothing admitted, no hit or miss
        counted (only ``read_retries`` / ``read_failures`` moved), so
        a later retry of the same read starts clean.
        """
        self._acquire_counted()
        try:
            data = self._pages.get(page_id)
            if data is not None:
                self._touch(page_id)
                self.stats.buffer_hits += 1
                hit = True
        finally:
            self._lock.release()
        if data is None:
            data = self._load_retrying(page_id, loader)
            self._acquire_counted()
            try:
                self.stats.disk_reads += 1
                self._admit(page_id, data)
            finally:
                self._lock.release()
            hit = False
        if self.on_read is not None:
            self.on_read(page_id, hit)
        return data

    def _load_retrying(
        self, page_id: int, loader: Callable[[int], bytes]
    ) -> bytes:
        """Run one loader call through the retry policy (no lock held).

        Only :class:`~repro.errors.TransientIOError` is retried; other
        errors (corruption, missing page) propagate immediately --
        retrying cannot fix them.
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                return loader(page_id)
            except TransientIOError:
                if attempt >= policy.max_attempts:
                    with self._lock:
                        self.stats.read_failures += 1
                    raise
                with self._lock:
                    self.stats.read_retries += 1
                delay = policy.delay(attempt)
                if delay > 0:
                    policy.sleep(delay)
                attempt += 1

    def put(self, page_id: int, data: bytes) -> None:
        """Install a freshly written page image (write-through cache)."""
        with self._lock:
            if page_id in self._pages:
                self._pages.move_to_end(page_id)
                self._pages[page_id] = data
            else:
                self._admit(page_id, data)

    def invalidate(self, page_id: int) -> None:
        """Drop a page (called when its page is freed)."""
        with self._lock:
            self._pages.pop(page_id, None)

    def clear(self) -> None:
        """Empty the buffer (used between experiment runs)."""
        with self._lock:
            self._pages.clear()

    def resize(self, capacity: int) -> None:
        """Change capacity, evicting by the replacement policy if
        shrinking (strict LRU order for this base class)."""
        if capacity < 0:
            raise ValueError("buffer capacity must be >= 0")
        with self._lock:
            self.capacity = capacity
            while len(self._pages) > capacity:
                self._evict_one()

    # -- policy hooks (all called with the lock held) ---------------------

    def _touch(self, page_id: int) -> None:
        """Recency update on a buffer hit."""
        self._pages.move_to_end(page_id)

    def _register(self, page_id: int) -> None:
        """Bookkeeping for a newly admitted page."""

    def _evict_one(self) -> None:
        """Evict one victim page (least recently used)."""
        self._pages.popitem(last=False)

    def _admit(self, page_id: int, data: bytes) -> None:
        if self.capacity == 0:
            return
        while len(self._pages) >= self.capacity:
            self._evict_one()
        self._pages[page_id] = data
        self._register(page_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._pages

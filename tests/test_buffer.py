"""Tests for the LRU buffer pool and the paged file facade."""

import pytest

from repro.storage.buffer import LRUBuffer
from repro.storage.paged_file import PagedFile
from repro.storage.stats import IOStats, QueryStats


def loader_factory(log):
    def loader(page_id):
        log.append(page_id)
        return bytes([page_id % 256]) * 8

    return loader


class TestLRUBuffer:
    def test_miss_then_hit(self):
        log = []
        buffer = LRUBuffer(capacity=2)
        loader = loader_factory(log)
        buffer.read(1, loader)
        buffer.read(1, loader)
        assert log == [1]
        assert buffer.stats.disk_reads == 1
        assert buffer.stats.buffer_hits == 1

    def test_zero_capacity_never_caches(self):
        log = []
        buffer = LRUBuffer(capacity=0)
        loader = loader_factory(log)
        for __ in range(3):
            buffer.read(5, loader)
        assert log == [5, 5, 5]
        assert buffer.stats.disk_reads == 3
        assert buffer.stats.buffer_hits == 0
        assert len(buffer) == 0

    def test_lru_eviction_order(self):
        log = []
        buffer = LRUBuffer(capacity=2)
        loader = loader_factory(log)
        buffer.read(1, loader)
        buffer.read(2, loader)
        buffer.read(1, loader)  # touch 1: now 2 is LRU
        buffer.read(3, loader)  # evicts 2
        assert 2 not in buffer
        assert 1 in buffer
        buffer.read(2, loader)  # miss again
        assert log == [1, 2, 3, 2]

    def test_put_installs_without_read(self):
        buffer = LRUBuffer(capacity=2)
        buffer.put(9, b"hello")
        got = buffer.read(9, lambda pid: pytest.fail("should not load"))
        assert got == b"hello"
        assert buffer.stats.buffer_hits == 1

    def test_invalidate(self):
        log = []
        buffer = LRUBuffer(capacity=2)
        loader = loader_factory(log)
        buffer.read(1, loader)
        buffer.invalidate(1)
        buffer.read(1, loader)
        assert log == [1, 1]

    def test_resize_shrinks_lru_first(self):
        log = []
        buffer = LRUBuffer(capacity=3)
        loader = loader_factory(log)
        for pid in (1, 2, 3):
            buffer.read(pid, loader)
        buffer.resize(1)
        assert len(buffer) == 1
        assert 3 in buffer  # most recently used survives

    def test_clear(self):
        buffer = LRUBuffer(capacity=2)
        buffer.put(1, b"x")
        buffer.clear()
        assert len(buffer) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUBuffer(capacity=-1)
        with pytest.raises(ValueError):
            LRUBuffer(capacity=1).resize(-2)


class TestIOStats:
    def test_reads_property(self):
        stats = IOStats(buffer_hits=3, disk_reads=2)
        assert stats.reads == 5
        assert stats.disk_accesses == 2

    def test_reset(self):
        stats = IOStats(1, 2, 3)
        stats.reset()
        assert (stats.buffer_hits, stats.disk_reads, stats.disk_writes) == (
            0, 0, 0,
        )

    def test_snapshot_is_independent(self):
        stats = IOStats(1, 2, 3)
        snap = stats.snapshot()
        stats.disk_reads = 99
        assert snap.disk_reads == 2

    def test_add(self):
        total = IOStats()
        total.add(IOStats(1, 2, 3))
        total.add(IOStats(10, 20, 30))
        assert (total.buffer_hits, total.disk_reads, total.disk_writes) == (
            11, 22, 33,
        )

    def test_query_stats_count_io(self):
        p = IOStats(buffer_hits=5, disk_reads=7)
        q = IOStats(buffer_hits=1, disk_reads=2)
        qs = QueryStats()
        settle = qs.count_io(p, q, p)
        p.add(IOStats(buffer_hits=3, disk_reads=4))
        q.disk_reads += 1
        deltas = settle()
        assert [d.disk_reads for d in deltas] == [4, 1]  # p counted once
        settle()  # settling again counts nothing twice
        assert qs.disk_accesses == 5
        assert qs.buffer_hits == 3


class TestPagedFile:
    def test_write_then_read_counts(self):
        file = PagedFile(buffer_capacity=0, page_size=64)
        pid = file.allocate()
        file.write_page(pid, b"\x01" * 64)
        assert file.stats.disk_writes == 1
        file.read_page(pid)
        file.read_page(pid)
        assert file.stats.disk_reads == 2  # zero buffer: every read hits disk

    def test_buffered_reads(self):
        file = PagedFile(buffer_capacity=4, page_size=64)
        pid = file.allocate()
        file.write_page(pid, b"\x01" * 64)
        file.read_page(pid)
        file.read_page(pid)
        # write_page installed the page, so both reads are hits
        assert file.stats.disk_reads == 0
        assert file.stats.buffer_hits == 2

    def test_reset_for_query_clears_counters_and_buffer(self):
        file = PagedFile(buffer_capacity=4, page_size=64)
        pid = file.allocate()
        file.write_page(pid, b"\x01" * 64)
        file.reset_for_query()
        assert file.stats.disk_writes == 0
        file.read_page(pid)
        assert file.stats.disk_reads == 1  # buffer was cold again

    def test_free_page_invalidates_buffer(self):
        file = PagedFile(buffer_capacity=4, page_size=64)
        pid = file.allocate()
        file.write_page(pid, b"\x01" * 64)
        file.free_page(pid)
        pid2 = file.allocate()
        assert pid2 == pid  # reused
        with pytest.raises(KeyError):
            file.read_page(999)

    def test_set_buffer_capacity(self):
        file = PagedFile(buffer_capacity=0, page_size=64)
        pid = file.allocate()
        file.write_page(pid, b"\x02" * 64)
        file.set_buffer_capacity(2)
        file.read_page(pid)
        file.read_page(pid)
        assert file.stats.buffer_hits == 1

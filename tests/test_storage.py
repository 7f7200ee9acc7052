"""Tests for page layout, serialisation and page stores."""

import pytest

from repro.storage.page import HEADER_SIZE, PageLayout, entry_size
from repro.storage.serializer import NodeSerializer, PageOverflowError
from repro.storage.store import FilePageStore, MemoryPageStore


class TestPageLayout:
    def test_paper_configuration(self):
        # 1 KiB pages give the paper's M = 21, m = 7.
        layout = PageLayout(page_size=1024)
        assert layout.max_entries == 21
        assert layout.min_entries == 7

    def test_capacity_scales_with_page_size(self):
        assert PageLayout(page_size=2048).max_entries == 42
        assert PageLayout(page_size=512).max_entries == 10

    def test_entry_size_grows_with_dimension(self):
        assert entry_size(2) == 48
        assert entry_size(3) == 56
        assert entry_size(1) == 48  # padded to the 2-d slot

    def test_min_entries_never_exceeds_half(self):
        layout = PageLayout(page_size=1024, min_fill_ratio=0.5)
        assert layout.min_entries <= layout.max_entries // 2

    def test_too_small_page_rejected(self):
        with pytest.raises(ValueError):
            PageLayout(page_size=32)

    def test_bad_fill_ratio_rejected(self):
        with pytest.raises(ValueError):
            PageLayout(min_fill_ratio=0.8)
        with pytest.raises(ValueError):
            PageLayout(min_fill_ratio=0.0)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            PageLayout(dimension=0)


class TestSerializer:
    @pytest.fixture
    def serializer(self):
        return NodeSerializer(PageLayout(page_size=1024))

    def test_leaf_roundtrip(self, serializer):
        entries = [((1.5, -2.5), 7), ((0.0, 0.0), 0), ((1e9, -1e-9), 42)]
        page = serializer.serialize_leaf(entries)
        assert len(page) == 1024
        level, decoded = serializer.deserialize(page)
        assert level == 0
        assert decoded == entries

    def test_internal_roundtrip(self, serializer):
        entries = [
            ((0.0, 0.0), (1.0, 1.0), 5),
            ((-3.5, 2.0), (7.25, 9.0), 12),
        ]
        page = serializer.serialize_internal(3, entries)
        level, decoded = serializer.deserialize(page)
        assert level == 3
        assert decoded == entries

    def test_empty_node_roundtrip(self, serializer):
        level, decoded = serializer.deserialize(serializer.serialize_leaf([]))
        assert level == 0
        assert decoded == []

    def test_full_node_roundtrip(self, serializer):
        entries = [((float(i), float(-i)), i) for i in range(21)]
        level, decoded = serializer.deserialize(
            serializer.serialize_leaf(entries)
        )
        assert decoded == entries

    def test_overflow_rejected(self, serializer):
        entries = [((float(i), 0.0), i) for i in range(22)]
        with pytest.raises(PageOverflowError):
            serializer.serialize_leaf(entries)

    def test_internal_level_zero_rejected(self, serializer):
        with pytest.raises(ValueError):
            serializer.serialize_internal(0, [])

    def test_wrong_page_size_rejected(self, serializer):
        with pytest.raises(ValueError):
            serializer.deserialize(b"\x00" * 100)

    def test_3d_roundtrip(self):
        serializer = NodeSerializer(PageLayout(page_size=1024, dimension=3))
        entries = [((1.0, 2.0, 3.0), 9)]
        level, decoded = serializer.deserialize(
            serializer.serialize_leaf(entries)
        )
        assert decoded == entries


class StoreContract:
    """Behaviour shared by every page store implementation."""

    def make(self, tmp_path):
        raise NotImplementedError

    def test_allocate_write_read(self, tmp_path):
        store = self.make(tmp_path)
        pid = store.allocate()
        data = bytes(range(256)) * 4
        store.write(pid, data)
        assert store.read(pid) == data

    def test_ids_unique(self, tmp_path):
        store = self.make(tmp_path)
        ids = {store.allocate() for __ in range(50)}
        assert len(ids) == 50

    def test_freed_page_reused(self, tmp_path):
        store = self.make(tmp_path)
        pid = store.allocate()
        store.free(pid)
        assert store.allocate() == pid

    def test_read_unwritten_or_freed_rejected(self, tmp_path):
        store = self.make(tmp_path)
        pid = store.allocate()
        store.free(pid)
        with pytest.raises(KeyError):
            store.read(pid)

    def test_write_unallocated_rejected(self, tmp_path):
        store = self.make(tmp_path)
        with pytest.raises(KeyError):
            store.write(999, b"\x00" * 1024)

    def test_wrong_size_write_rejected(self, tmp_path):
        store = self.make(tmp_path)
        pid = store.allocate()
        with pytest.raises(ValueError):
            store.write(pid, b"short")

    def test_len_counts_live_pages(self, tmp_path):
        store = self.make(tmp_path)
        a = store.allocate()
        store.allocate()
        assert len(store) == 2
        store.free(a)
        assert len(store) == 1


class TestMemoryPageStore(StoreContract):
    def make(self, tmp_path):
        return MemoryPageStore(1024)


class TestFilePageStore(StoreContract):
    def make(self, tmp_path):
        return FilePageStore(str(tmp_path / "pages.bin"), 1024)

    def test_data_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "persist.bin")
        with FilePageStore(path, 1024) as store:
            pid = store.allocate()
            store.write(pid, b"\xab" * 1024)
            store.flush()
        with FilePageStore(path, 1024) as reopened:
            assert reopened.read(pid) == b"\xab" * 1024

    def test_non_page_aligned_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"x" * 100)
        with pytest.raises(ValueError):
            FilePageStore(str(path), 1024)


class TestEnsureAllocated:
    """WAL replay's entry point: make a specific page id live."""

    @pytest.mark.parametrize("factory", [
        lambda tmp_path: MemoryPageStore(1024),
        lambda tmp_path: FilePageStore(str(tmp_path / "ea.bin"), 1024),
    ], ids=["memory", "file"])
    def test_sparse_id_becomes_writable(self, tmp_path, factory):
        store = factory(tmp_path)
        store.ensure_allocated(7)
        store.write(7, b"\x07" * 1024)
        assert store.read(7) == b"\x07" * 1024
        # Fresh allocations never collide with the forced id.
        assert all(store.allocate() != 7 for __ in range(10))

    def test_already_allocated_is_a_noop(self, tmp_path):
        store = MemoryPageStore(1024)
        pid = store.allocate()
        store.write(pid, b"\x01" * 1024)
        store.ensure_allocated(pid)
        assert store.read(pid) == b"\x01" * 1024

    def test_resurrects_freed_page(self, tmp_path):
        store = MemoryPageStore(1024)
        pid = store.allocate()
        store.free(pid)
        store.ensure_allocated(pid)
        store.write(pid, b"\x02" * 1024)
        assert store.read(pid) == b"\x02" * 1024


class TestMmapReadPath:
    def test_mmap_reads_match_buffered(self, tmp_path):
        path = str(tmp_path / "m.bin")
        images = {}
        with FilePageStore(path, 1024) as store:
            for fill in range(8):
                pid = store.allocate()
                images[pid] = bytes([fill]) * 1024
                store.write(pid, images[pid])
            store.flush()
        with FilePageStore(path, 1024, readonly=True,
                           use_mmap=True) as mapped:
            for pid, image in images.items():
                assert mapped.read(pid) == image

    def test_mapped_store_sees_its_own_writes(self, tmp_path):
        # A writable mmap store must flush before mapping, or a read
        # would return stale bytes from before the buffered write.
        path = str(tmp_path / "rw.bin")
        with FilePageStore(path, 1024, use_mmap=True) as store:
            pid = store.allocate()
            store.write(pid, b"\xaa" * 1024)
            assert store.read(pid) == b"\xaa" * 1024
            store.write(pid, b"\xbb" * 1024)
            assert store.read(pid) == b"\xbb" * 1024

    def test_remap_after_growth(self, tmp_path):
        # Reads establish a mapping sized to the file; later
        # allocations grow the file and must trigger a remap.
        path = str(tmp_path / "grow.bin")
        with FilePageStore(path, 1024, use_mmap=True) as store:
            first = store.allocate()
            store.write(first, b"\x01" * 1024)
            assert store.read(first) == b"\x01" * 1024
            later = [store.allocate() for __ in range(16)]
            for pid in later:
                store.write(pid, bytes([pid % 256]) * 1024)
            for pid in later:
                assert store.read(pid) == bytes([pid % 256]) * 1024

    def test_mmap_on_empty_file_falls_back(self, tmp_path):
        # Zero-length files cannot be mapped; reads must not crash.
        path = str(tmp_path / "empty.bin")
        with FilePageStore(path, 1024, use_mmap=True) as store:
            pid = store.allocate()
            store.write(pid, b"\x0f" * 1024)
            assert store.read(pid) == b"\x0f" * 1024


class TestConcurrentReadWrite:
    def test_reads_are_not_disturbed_by_a_concurrent_writer(self, tmp_path):
        # One thread rewrites its own pages while others read pages
        # nobody writes.  Every read must return exactly the page's
        # image: a shared file position would let a writer's seek land
        # between a reader's seek and read (a short or misplaced read).
        import sys
        import threading

        size = 256
        store = FilePageStore(str(tmp_path / "race.pages"), page_size=size)
        stable = {}
        for i in range(8):
            pid = store.allocate()
            stable[pid] = bytes([i + 1]) * size
            store.write(pid, stable[pid])
        churn = [store.allocate() for __ in range(8)]
        stop = threading.Event()
        errors = []

        def writer():
            n = 0
            while not stop.is_set():
                n += 1
                for pid in churn:
                    store.write(pid, bytes([n % 251]) * size)

        def reader():
            try:
                for __ in range(3000):
                    for pid, image in stable.items():
                        if store.read(pid) != image:
                            errors.append(pid)
                            return
            except Exception as exc:  # noqa: BLE001 - any failure counts
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for __ in range(3)]
            write_thread = threading.Thread(target=writer)
            write_thread.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            stop.set()
            write_thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [write_thread])
        store.close()
        assert errors == []

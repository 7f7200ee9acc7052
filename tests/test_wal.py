"""Write-ahead log: record framing, torn tails, replay.

Covers the WAL in isolation (no tree): hypothesis round-trips of
arbitrary record sequences through append + replay, torn-tail
detection for every damage shape (short header, short payload, bad
magic, bad CRC, zeroed tail), and committed-batch-only recovery onto
a bare page store.  Crash recovery of a *tree* through the WAL lives
in ``tests/test_recovery.py``.
"""

from __future__ import annotations

import os
import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.store import MemoryPageStore
from repro.storage.wal import (
    REC_BEGIN,
    REC_COMMIT,
    REC_FREE,
    REC_WRITE,
    WAL_MAGIC,
    WriteAheadLog,
    recover_tree,
)

PAGE = 64


def wal_at(tmp_path, name="test.wal", sync="flush"):
    return WriteAheadLog(str(tmp_path / name), sync_mode=sync)


def page_image(fill: int) -> bytes:
    return bytes([fill % 256]) * PAGE


class TestFraming:
    def test_empty_log_replays_nothing(self, tmp_path):
        with wal_at(tmp_path) as wal:
            assert list(wal.replay()) == []

    def test_single_batch_round_trip(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.begin(0)
            wal.log_write(3, page_image(7))
            wal.log_free(9)
            wal.commit(1, root_id=3, height=1, count=5)
            records = list(wal.replay())
        assert [r[0] for r in records] == [
            REC_BEGIN, REC_WRITE, REC_FREE, REC_COMMIT,
        ]
        # Offsets strictly increase and end at the file size.
        offsets = [r[2] for r in records]
        assert offsets == sorted(offsets)
        assert offsets[-1] == os.path.getsize(wal.path)

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("write"),
                      st.integers(min_value=0, max_value=500),
                      st.binary(min_size=PAGE, max_size=PAGE)),
            st.tuples(st.just("free"),
                      st.integers(min_value=0, max_value=500),
                      st.just(b"")),
        ),
        max_size=12,
    ))
    def test_record_sequences_round_trip(self, tmp_path_factory, ops):
        path = str(tmp_path_factory.mktemp("wal") / "rt.wal")
        with WriteAheadLog(path, sync_mode="none") as wal:
            wal.begin(0)
            for kind, page_id, data in ops:
                if kind == "write":
                    wal.log_write(page_id, data)
                else:
                    wal.log_free(page_id)
            wal.commit(1, root_id=None, height=0, count=0)
            replayed = list(wal.replay())
        # BEGIN + ops + COMMIT, every payload byte-identical.
        assert len(replayed) == len(ops) + 2
        for (kind, page_id, data), (rec_type, payload, __) in zip(
            ops, replayed[1:-1]
        ):
            if kind == "write":
                assert rec_type == REC_WRITE
                (decoded_id,) = struct.unpack_from("<q", payload, 0)
                assert decoded_id == page_id
                assert payload[8:] == data
            else:
                assert rec_type == REC_FREE
                (decoded_id,) = struct.unpack("<q", payload)
                assert decoded_id == page_id

    def test_sync_mode_validation(self, tmp_path):
        with pytest.raises(ValueError, match="sync_mode"):
            WriteAheadLog(str(tmp_path / "x.wal"), sync_mode="wrong")


class TestTornTails:
    @pytest.mark.parametrize("shape", [
        "truncate_header", "truncate_payload", "zero_tail", "bad_magic",
        "flip_payload_bit",
    ])
    def test_damage_shapes_stop_replay(self, tmp_path, shape):
        def damage(path):
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                if shape == "truncate_header":
                    fh.truncate(size - (size - clean[0]) + 4)
                elif shape == "truncate_payload":
                    fh.truncate(size - 3)
                elif shape == "zero_tail":
                    fh.seek(clean[0])
                    fh.write(b"\x00" * (size - clean[0]))
                elif shape == "bad_magic":
                    fh.seek(clean[0])
                    fh.write(b"\xff\xff")
                else:  # flip a payload bit of the last record
                    fh.seek(size - 1)
                    last = fh.read(1)
                    fh.seek(size - 1)
                    fh.write(bytes([last[0] ^ 0x40]))

        clean = []
        wal = wal_at(tmp_path)
        wal.begin(0)
        wal.log_write(0, page_image(1))
        wal.commit(1, root_id=0, height=1, count=1)
        clean.append(os.path.getsize(wal.path))
        wal.begin(1)
        wal.log_write(1, page_image(2))
        wal._file.flush()
        damage(wal.path)
        records = list(wal.replay())
        # Replay never reads past the damage and never yields a
        # record from the torn batch's damaged point onward.
        assert all(end <= os.path.getsize(wal.path) for *_, end in records)
        store = MemoryPageStore(PAGE)
        result = wal.recover_into(store)
        assert result.generation == 1  # the committed batch survives
        assert store.read(0) == page_image(1)
        wal.close()

    def test_truncate_torn_tail(self, tmp_path):
        wal = wal_at(tmp_path)
        wal.begin(0)
        wal.commit(1, root_id=None, height=0, count=0)
        clean_size = os.path.getsize(wal.path)
        wal._file.write(b"\x57garbage-not-a-frame")
        wal._file.flush()
        dropped = wal.truncate_torn_tail()
        assert dropped > 0
        assert os.path.getsize(wal.path) == clean_size
        # Appending after the truncation produces a clean log again.
        wal.begin(1)
        wal.commit(2, root_id=None, height=0, count=0)
        result = wal.recover_into(MemoryPageStore(PAGE))
        assert result.generation == 2
        assert not result.torn
        wal.close()


class TestRecoverInto:
    def test_only_committed_batches_apply(self, tmp_path):
        store = MemoryPageStore(PAGE)
        with wal_at(tmp_path) as wal:
            wal.begin(0)
            wal.log_write(0, page_image(1))
            wal.commit(1, root_id=0, height=1, count=1)
            wal.begin(1)
            wal.log_write(0, page_image(2))  # never committed
            result = wal.recover_into(store)
        assert result.generation == 1
        assert result.batches_applied == 1
        assert result.discarded_batches == 1
        assert store.read(0) == page_image(1)

    def test_later_commit_wins(self, tmp_path):
        store = MemoryPageStore(PAGE)
        with wal_at(tmp_path) as wal:
            wal.begin(0)
            wal.log_write(0, page_image(1))
            wal.commit(1, root_id=0, height=1, count=1)
            wal.begin(1)
            wal.log_write(0, page_image(9))
            wal.log_free(1)
            wal.commit(2, root_id=0, height=1, count=2)
            result = wal.recover_into(store)
        assert result.generation == 2
        assert store.read(0) == page_image(9)
        # FREEd page 1 was ensure_allocated'd then freed again.
        with pytest.raises(KeyError):
            store.read(1)

    def test_free_records_rebuild_free_list(self, tmp_path):
        store = MemoryPageStore(PAGE)
        with wal_at(tmp_path) as wal:
            wal.begin(0)
            wal.log_write(5, page_image(3))
            wal.log_free(2)
            wal.commit(1, root_id=5, height=1, count=1)
            wal.recover_into(store)
        assert store.read(5) == page_image(3)
        # Page 2 is on the free list: allocating hands it back first.
        assert store.allocate() == 2

    def test_checkpoint_empties_log(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.begin(0)
            wal.commit(1, root_id=None, height=0, count=0)
            wal.checkpoint()
            assert os.path.getsize(wal.path) == 0
            assert list(wal.replay()) == []

    def test_recover_tree_without_commit_uses_fallback(self, tmp_path):
        pages = str(tmp_path / "t.pages")
        walp = str(tmp_path / "t.wal")
        open(pages, "wb").close()
        with WriteAheadLog(walp, sync_mode="none") as wal:
            wal.begin(0)  # begun, never committed
        tree, result = recover_tree(pages, walp)
        assert tree is None and result.generation is None
        fallback = {"root_id": None, "height": 0, "count": 0,
                    "generation": 0, "variant": "rstar",
                    "page_size": 1024, "dimension": 2}
        tree, result = recover_tree(pages, walp,
                                    fallback_metadata=fallback)
        assert tree is not None and len(tree) == 0
        tree.file.store.close()


class TestCrcCoverage:
    def test_crc_covers_type_and_length(self, tmp_path):
        """A frame whose type was altered (CRC unchanged) is rejected."""
        with wal_at(tmp_path) as wal:
            wal.begin(0)
            wal.commit(1, root_id=None, height=0, count=0)
            path = wal.path
        with open(path, "r+b") as fh:
            # Flip the record type of the first frame from BEGIN to
            # FREE without touching its CRC.
            fh.seek(2)
            fh.write(struct.pack("<H", REC_FREE))
        with WriteAheadLog(path, sync_mode="none") as wal:
            assert list(wal.replay()) == []  # stops at frame 0

    def test_magic_word(self):
        assert struct.pack("<H", WAL_MAGIC) == b"WL"

    def test_frame_crc_matches_manual(self, tmp_path):
        with wal_at(tmp_path) as wal:
            wal.log_free(42)
            path = wal.path
        with open(path, "rb") as fh:
            magic, rec_type, length, crc = struct.unpack("<HHII",
                                                         fh.read(12))
            payload = fh.read(length)
        assert magic == WAL_MAGIC and rec_type == REC_FREE
        expected = zlib.crc32(struct.pack("<HI", rec_type, length))
        expected = zlib.crc32(payload, expected) & 0xFFFFFFFF
        assert crc == expected

"""Write-ahead log with CRC-framed records and crash-recovery replay.

The live-mutation storage layer (see ``docs/STORAGE.md``) makes every
tree mutation durable *before* it is published: a batch of inserts and
deletes appends its page images to this log, syncs, and only then
advances the committed snapshot.  A crash at any point therefore
leaves one of two recoverable states -- the batch committed (its
records replay onto the page file) or it did not (its records are
ignored), never a half-applied tree.

Record framing extends the PR 5 v1 checksummed-page discipline to a
byte stream.  Each record is::

    magic (uint16) | type (uint16) | length (uint32) | crc32 (uint32)
    payload (length bytes)

with the CRC covering type, length and payload.  A *torn tail* --
the partially flushed last record of a crashed writer -- fails either
the magic check, the CRC, or runs short of bytes; replay stops at the
first damaged frame and reports it rather than guessing (exactly the
"detected, not replayed" contract of the page checksums).  Records
*before* the tear replay normally, so a tear can only ever lose the
uncommitted batch it belongs to.

Record types form one batch per commit::

    BEGIN(generation)                       -- batch opens
    WRITE(page_id, page_image) ...          -- final image of each page
    FREE(page_id) ...                       -- pages the batch released
    COMMIT(generation, root_id, height, count)

Replay (:meth:`WriteAheadLog.recover_into`) applies WRITE/FREE to the
page store batch-by-batch, but only for batches whose COMMIT record
was seen intact; the returned :class:`RecoveryResult` carries the last
committed root/generation so the tree can reopen exactly there.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import PageCorruptionError

#: Stamp leading every record frame (ASCII ``"WL"``); a frame that does
#: not start with it is damage or a torn tail.
WAL_MAGIC = 0x4C57

#: Record types, in the order they appear within one batch.
REC_BEGIN = 1
REC_WRITE = 2
REC_FREE = 3
REC_COMMIT = 4

#: magic, type, length, crc32 -- 12 bytes.
_FRAME = struct.Struct("<HHII")
#: BEGIN payload: the committed generation the batch mutates.
_BEGIN = struct.Struct("<q")
#: WRITE payload prefix: the page id (page image follows).
_WRITE = struct.Struct("<q")
#: FREE payload: the page id being released.
_FREE = struct.Struct("<q")
#: COMMIT payload: new generation, root page id (-1 when the tree is
#: empty), height, entry count.
_COMMIT = struct.Struct("<qqqq")


class WALCorruptionError(PageCorruptionError):
    """A WAL frame failed its magic or CRC check (torn tail or damage)."""


def _frame(rec_type: int, payload: bytes) -> bytes:
    crc = zlib.crc32(struct.pack("<HI", rec_type, len(payload)))
    crc = zlib.crc32(payload, crc) & 0xFFFFFFFF
    return _FRAME.pack(WAL_MAGIC, rec_type, len(payload), crc) + payload


@dataclass(frozen=True)
class RecoveryResult:
    """What :meth:`WriteAheadLog.recover_into` found and applied.

    ``generation``/``root_id``/``height``/``count`` describe the last
    *committed* batch (``None`` generation when no batch ever
    committed); ``torn`` reports whether replay stopped at a damaged
    frame, and ``valid_bytes`` is the clean prefix length -- the offset
    :meth:`WriteAheadLog.truncate_torn_tail` cuts back to.
    """

    generation: Optional[int]
    root_id: Optional[int]
    height: int
    count: int
    batches_applied: int
    pages_written: int
    torn: bool
    valid_bytes: int
    #: Batches that had begun but never committed (0 or 1 in practice).
    discarded_batches: int = 0


@dataclass
class WALStats:
    """Counters of one log's appended and replayed work."""

    records_appended: int = 0
    bytes_appended: int = 0
    syncs: int = 0
    commits: int = 0
    aborted_batches: int = 0
    checkpoints: int = 0
    extra: dict = field(default_factory=dict)


class WriteAheadLog:
    """Append-only CRC-framed log over one file.

    ``sync_mode`` trades durability for speed:

    * ``"fsync"`` (default): every commit is ``flush`` + ``os.fsync``
      -- survives power loss.
    * ``"flush"``: flushed to the OS, survives process crash only.
    * ``"none"``: buffered; for tests and benchmarks.

    The log is single-writer (the tree's mutation batch owns it); it
    does no locking of its own.
    """

    def __init__(self, path: str, sync_mode: str = "fsync"):
        if sync_mode not in ("fsync", "flush", "none"):
            raise ValueError(
                f"sync_mode must be fsync, flush or none, not {sync_mode!r}"
            )
        self.path = path
        self.sync_mode = sync_mode
        self.stats = WALStats()
        self._file = open(path, "ab")

    # -- append side -------------------------------------------------------

    def _append(self, rec_type: int, payload: bytes) -> None:
        data = _frame(rec_type, payload)
        self._file.write(data)
        self.stats.records_appended += 1
        self.stats.bytes_appended += len(data)

    def begin(self, generation: int) -> None:
        """Open a batch mutating the given committed generation."""
        self._append(REC_BEGIN, _BEGIN.pack(generation))

    def log_write(self, page_id: int, data: bytes) -> None:
        """Record the final image of one page written by the batch."""
        self._append(REC_WRITE, _WRITE.pack(page_id) + data)

    def log_free(self, page_id: int) -> None:
        """Record one page the batch released back to the free list."""
        self._append(REC_FREE, _FREE.pack(page_id))

    def commit(self, generation: int, root_id: Optional[int],
               height: int, count: int) -> None:
        """Seal the batch and make it durable per ``sync_mode``."""
        self._append(REC_COMMIT, _COMMIT.pack(
            generation, -1 if root_id is None else root_id, height, count
        ))
        self.stats.commits += 1
        self.sync()

    def sync(self) -> None:
        """Push appended records down to the configured durability."""
        if self.sync_mode == "none":
            return
        self._file.flush()
        if self.sync_mode == "fsync":
            os.fsync(self._file.fileno())
        self.stats.syncs += 1

    # -- replay side -------------------------------------------------------

    def replay(self) -> Iterator[Tuple[int, bytes, int]]:
        """Yield ``(type, payload, end_offset)`` for every intact record.

        Stops silently at the first torn or damaged frame (the caller
        distinguishes "clean end" from "tear" by comparing the last
        yielded ``end_offset`` against the file size, or uses
        :meth:`recover_into` which does it).  Reads through a separate
        handle so an open writer is unaffected.
        """
        self._file.flush()
        with open(self.path, "rb") as handle:
            offset = 0
            while True:
                header = handle.read(_FRAME.size)
                if len(header) < _FRAME.size:
                    return  # clean EOF or short header (torn)
                magic, rec_type, length, crc = _FRAME.unpack(header)
                if magic != WAL_MAGIC:
                    return
                payload = handle.read(length)
                if len(payload) < length:
                    return  # torn payload
                actual = zlib.crc32(struct.pack("<HI", rec_type, length))
                actual = zlib.crc32(payload, actual) & 0xFFFFFFFF
                if actual != crc:
                    return
                offset += _FRAME.size + length
                yield rec_type, payload, offset

    def recover_into(self, store) -> RecoveryResult:
        """Replay every *committed* batch onto ``store``.

        WRITE records re-apply their page image (allocating the page
        when the store has never seen it); FREE records return pages to
        the free list.  Batches without an intact COMMIT -- including
        anything after a torn frame -- are discarded, never partially
        applied.  Returns the :class:`RecoveryResult` describing the
        reopened state.
        """
        batch: List[Tuple[int, bytes]] = []
        in_batch = False
        discarded = 0
        meta: Optional[Tuple[int, Optional[int], int, int]] = None
        batches = pages = 0
        valid_bytes = 0
        for rec_type, payload, end in self.replay():
            valid_bytes = end
            if rec_type == REC_BEGIN:
                if in_batch:
                    discarded += 1
                batch = []
                in_batch = True
            elif rec_type in (REC_WRITE, REC_FREE):
                batch.append((rec_type, payload))
            elif rec_type == REC_COMMIT:
                generation, root_id, height, count = _COMMIT.unpack(payload)
                for op, body in batch:
                    if op == REC_WRITE:
                        (page_id,) = _WRITE.unpack_from(body, 0)
                        image = body[_WRITE.size:]
                        store.ensure_allocated(page_id)
                        store.write(page_id, image)
                        pages += 1
                    else:
                        (page_id,) = _FREE.unpack(body)
                        store.ensure_allocated(page_id)
                        store.free(page_id)
                meta = (
                    generation,
                    None if root_id == -1 else root_id,
                    height,
                    count,
                )
                batches += 1
                batch = []
                in_batch = False
        if in_batch:
            discarded += 1
        size = os.path.getsize(self.path)
        if meta is None:
            generation_v: Optional[int] = None
            root_v: Optional[int] = None
            height_v = count_v = 0
        else:
            generation_v, root_v, height_v, count_v = meta
        return RecoveryResult(
            generation=generation_v,
            root_id=root_v,
            height=height_v,
            count=count_v,
            batches_applied=batches,
            pages_written=pages,
            torn=valid_bytes != size,
            valid_bytes=valid_bytes,
            discarded_batches=discarded,
        )

    def truncate_torn_tail(self) -> int:
        """Cut the log back to its last intact record boundary.

        Returns the number of bytes dropped.  Run after recovery so a
        reopened writer appends after clean frames, not into garbage.
        """
        valid = 0
        for __, __, end in self.replay():
            valid = end
        size = os.path.getsize(self.path)
        if valid < size:
            self._file.flush()
            self._file.truncate(valid)
            self._file.seek(0, os.SEEK_END)
        return size - valid

    def checkpoint(self) -> None:
        """Empty the log (call only after the page store is durable).

        Idempotent: checkpointing an already-empty log is a no-op
        truncate.  The caller owns the ordering contract -- flush the
        page store and rewrite the metadata sidecar *first*, so the
        log's contents are redundant at the moment they vanish (see
        :meth:`repro.rtree.tree.RTree.checkpoint_wal`).
        """
        self._file.flush()
        self._file.truncate(0)
        self._file.seek(0)
        if self.sync_mode == "fsync":
            os.fsync(self._file.fileno())
        self.stats.checkpoints += 1

    def size(self) -> int:
        """Current on-disk log size in bytes (buffered writes included)."""
        self._file.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class WALCheckpointer:
    """Background WAL checkpointing on a size threshold.

    Watches one live tree's log and calls ``checkpoint()`` (by default
    the tree's :meth:`~repro.rtree.tree.RTree.checkpoint_wal`) whenever
    the log grows past ``threshold_bytes`` -- bounding both recovery
    replay time and disk held by page images that the flushed store
    already owns.  The checkpoint callable is responsible for its own
    atomicity (``checkpoint_wal`` takes the tree's batch lock, so a
    checkpoint never interleaves with a half-appended batch).

    Runs as a daemon thread polling every ``interval_s``;
    :meth:`maybe_checkpoint` offers the same threshold check
    synchronously (the commit path calls it when no thread is wanted).
    """

    def __init__(self, wal: WriteAheadLog, checkpoint,
                 threshold_bytes: int = 4 * 1024 * 1024,
                 interval_s: float = 0.25):
        if threshold_bytes < 1:
            raise ValueError("threshold_bytes must be >= 1")
        import threading

        self.wal = wal
        self.threshold_bytes = threshold_bytes
        self.interval_s = interval_s
        self.checkpoints_triggered = 0
        self._checkpoint = checkpoint
        self._stop = threading.Event()
        self._thread: Optional[object] = None
        self._threading = threading

    def maybe_checkpoint(self) -> bool:
        """Checkpoint now if the log is past threshold; True when it ran."""
        try:
            over = self.wal.size() >= self.threshold_bytes
        except (OSError, ValueError):  # log closed under us
            return False
        if not over:
            return False
        self._checkpoint()
        self.checkpoints_triggered += 1
        return True

    def start(self) -> "WALCheckpointer":
        """Start the background thread (idempotent)."""
        if self._thread is None:
            self._thread = self._threading.Thread(
                target=self._loop, name="wal-checkpointer", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.maybe_checkpoint()
            except (OSError, ValueError):  # pragma: no cover -- closing
                return

    def close(self, timeout_s: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None

    def __enter__(self) -> "WALCheckpointer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


#: Page size :func:`recover_tree` opens a page file at when there is
#: no sidecar to read it from (the size every CLI-built tree uses).
RECOVER_PAGE_SIZE = 1024


def recover_tree(pages_path: str, wal_path: str, use_mmap: bool = False,
                 fallback_metadata: Optional[dict] = None):
    """Replay a WAL onto a page file and reopen the tree it describes.

    The one-call crash-recovery entry point used by ``repro-cpq
    recover`` and the chaos tests: applies every committed batch to
    the page file, truncates the torn tail, and returns ``(tree,
    result)`` where the tree -- reopened writable through
    :func:`repro.catalog.open_tree` -- is positioned at the last
    committed snapshot.  ``fallback_metadata`` (the sidecar
    ``.meta.json`` from before the crashed ingest) supplies the page
    size, dimension and variant when given, and the whole position
    when the log holds no committed batch; without it the page file
    opens at :data:`RECOVER_PAGE_SIZE` with :func:`~repro.catalog.
    open_tree`'s defaults, and ``(None, result)`` is returned when the
    log holds no committed batch either.
    """
    from repro.catalog.core import open_tree
    from repro.storage.store import FilePageStore

    metadata = {"page_size": RECOVER_PAGE_SIZE, **(fallback_metadata or {})}
    store = FilePageStore(pages_path, int(metadata["page_size"]),
                          use_mmap=use_mmap)
    try:
        with WriteAheadLog(wal_path, sync_mode="none") as wal:
            result = wal.recover_into(store)
            wal.truncate_torn_tail()
    finally:
        store.close()
    if result.generation is None:
        if fallback_metadata is None:
            return None, result
    else:
        metadata.update(root_id=result.root_id, height=result.height,
                        count=result.count, generation=result.generation)
    tree = open_tree(pages_path, metadata=metadata, use_mmap=use_mmap,
                     readonly=False)
    return tree, result

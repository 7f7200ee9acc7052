"""I/O accounting.

Every experiment in the paper reports *disk accesses*: node reads that
miss the LRU buffer.  :class:`IOStats` is the single mutable counter
object threaded through a tree's storage stack, counting for its
lifetime; a query's figures are :meth:`QueryStats.count_io` deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping


@dataclass
class IOStats:
    """Counters for one paged file / R-tree."""

    #: Node reads served from the buffer.
    buffer_hits: int = 0
    #: Node reads that went to disk (the paper's "disk accesses").
    disk_reads: int = 0
    #: Page writes (tree construction only; queries never write).
    disk_writes: int = 0
    #: Transient read faults absorbed by the buffer's retry loop
    #: (each retry attempt counts one; see
    #: :class:`repro.storage.buffer.RetryPolicy`).
    read_retries: int = 0
    #: Reads that exhausted their retries and raised.
    read_failures: int = 0
    #: Checksum/corruption detections observed while decoding pages
    #: (counted whether or not a buffer-drop-and-reread healed them).
    corrupt_reads: int = 0

    @property
    def reads(self) -> int:
        """Total logical node reads (hits + misses)."""
        return self.buffer_hits + self.disk_reads

    @property
    def disk_accesses(self) -> int:
        """The paper's cost metric: reads not absorbed by the buffer."""
        return self.disk_reads

    def reset(self) -> None:
        """Zero all counters (typically done right before a query)."""
        self.buffer_hits = 0
        self.disk_reads = 0
        self.disk_writes = 0
        self.read_retries = 0
        self.read_failures = 0
        self.corrupt_reads = 0

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counter values."""
        return IOStats(
            self.buffer_hits,
            self.disk_reads,
            self.disk_writes,
            self.read_retries,
            self.read_failures,
            self.corrupt_reads,
        )

    def since(self, before: "IOStats") -> "IOStats":
        """The counter deltas since the ``before`` snapshot."""
        return IOStats(*(getattr(self, f.name) - getattr(before, f.name)
                         for f in fields(self)))

    def add(self, other: "IOStats") -> None:
        """Accumulate another counter set into this one."""
        self.buffer_hits += other.buffer_hits
        self.disk_reads += other.disk_reads
        self.disk_writes += other.disk_writes
        self.read_retries += other.read_retries
        self.read_failures += other.read_failures
        self.corrupt_reads += other.corrupt_reads


@dataclass
class QueryStats:
    """Aggregate statistics for one CPQ execution across both trees.

    ``disk_accesses`` is the headline number plotted by every figure in
    the paper; the remaining fields support the algorithmic analyses
    (Section 3.9 discusses priority-queue sizes, for instance).
    """

    disk_accesses: int = 0
    buffer_hits: int = 0
    #: Point-to-point distance computations performed.
    distance_computations: int = 0
    #: Node pairs processed by the algorithm.
    node_pairs_visited: int = 0
    #: Largest size reached by the algorithm's main-memory structure
    #: (recursion-ordering heap, or the incremental priority queue).
    max_queue_size: int = 0
    #: Candidate pairs inserted into the algorithm's queue/heap.
    queue_inserts: int = 0
    extra: dict = field(default_factory=dict)

    def traversal_counters(self) -> Dict[str, int]:
        """A partial execution's (worker's, shard chunk's) traversal
        counters, for :meth:`fold_traversal`."""
        return {
            "node_pairs_visited": self.node_pairs_visited,
            "distance_computations": self.distance_computations,
            "queue_inserts": self.queue_inserts,
            "max_queue_size": self.max_queue_size,
        }

    def fold_traversal(self, counters: Mapping[str, int]) -> None:
        """Add one partial execution's :meth:`traversal_counters`
        (the queue size takes the maximum)."""
        self.node_pairs_visited += counters["node_pairs_visited"]
        self.distance_computations += counters["distance_computations"]
        self.queue_inserts += counters["queue_inserts"]
        self.max_queue_size = max(self.max_queue_size,
                                  counters["max_queue_size"])

    def count_io(self, *counters: IOStats) -> Callable[[], List[IOStats]]:
        """Open this query's I/O ledger on the distinct ``counters``
        (one tree on both sides counts once): the returned function
        sets ``disk_accesses`` / ``buffer_hits`` to the reads since now
        and returns each counter's delta, counting nothing twice."""
        distinct = {id(counter): counter for counter in counters}
        bases = [(c, c.snapshot()) for c in distinct.values()]

        def settle() -> List[IOStats]:
            deltas = [counter.since(base) for counter, base in bases]
            self.disk_accesses = sum(d.disk_reads for d in deltas)
            self.buffer_hits = sum(d.buffer_hits for d in deltas)
            return deltas

        return settle

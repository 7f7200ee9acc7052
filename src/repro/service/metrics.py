"""Observability for the query service.

One :class:`ServiceMetrics` instance aggregates everything the service
operator needs to watch: admission outcomes, per-query latency (as a
count/sum/min/max summary plus fixed histogram buckets), planner
decision tallies, result-cache hit rates, per-query I/O counters, a
queue-depth gauge and -- when the service is traced -- per-span-name
time rollups fed by :meth:`ServiceMetrics.record_trace` (see
``docs/OBSERVABILITY.md``).  All methods are thread-safe;
:meth:`snapshot` returns a plain nested dict that serialises directly
to JSON (the CLI's ``serve-stats`` output).

I/O counters are exact for serial workloads; under concurrency a
query's delta can include reads issued by an overlapping query on the
same trees, so treat them as aggregate observability, not accounting.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

from repro.geometry.vectorized import KERNEL_STATS

#: Upper edges of the latency histogram, in milliseconds.
LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    math.inf,
)


class ServiceMetrics:
    """Thread-safe counters, histogram and gauges for one service."""

    def __init__(self):
        self._lock = threading.Lock()
        self._reset_locked()

    def _reset_locked(self) -> None:
        """(Re)initialise every counter; caller holds ``_lock`` (or is
        ``__init__``, before the instance is shared)."""
        self._statuses: Dict[str, int] = {}
        self._kinds: Dict[str, int] = {}
        self._submitted = 0
        self._planner: Dict[str, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_min = math.inf
        self._latency_max = 0.0
        self._latency_buckets = [0] * len(LATENCY_BUCKETS_MS)
        #: Per-algorithm latency summaries: algorithm ->
        #: [count, total, min, max, bucket list].
        self._latency_by_algorithm: Dict[str, list] = {}
        self._disk_reads = 0
        self._buffer_hits = 0
        self._read_retries = 0
        self._queue_depth = 0
        self._queue_depth_max = 0
        #: Load-shedding and breaker counters (the resilience section).
        self._shed = 0
        self._breaker_rejections = 0
        self._stale_served = 0
        self._parallel_fallbacks = 0
        self._partial_responses = 0
        #: Storage faults observed by executions: error type -> count.
        self._storage_faults: Dict[str, int] = {}
        #: Span rollups fed by traced requests: name -> [count, total_ms].
        self._spans: Dict[str, list] = {}

    # -- recording ---------------------------------------------------------

    def record_submitted(self) -> None:
        with self._lock:
            self._submitted += 1

    def record_query(
        self,
        kind: str,
        status: str,
        latency_ms: float,
        cached: bool = False,
        disk_reads: int = 0,
        buffer_hits: int = 0,
        algorithm: Optional[str] = None,
        read_retries: int = 0,
    ) -> None:
        """Record one finished (or rejected) query.

        ``algorithm`` (when known -- CPQ executions, after planning)
        additionally feeds a per-algorithm latency summary, so operators
        can compare e.g. HEAP vs STD tail latency on live traffic.
        """
        with self._lock:
            self._statuses[status] = self._statuses.get(status, 0) + 1
            self._kinds[kind] = self._kinds.get(kind, 0) + 1
            if cached:
                self._cache_hits += 1
            self._latency_count += 1
            self._latency_total += latency_ms
            self._latency_min = min(self._latency_min, latency_ms)
            self._latency_max = max(self._latency_max, latency_ms)
            bucket = self._bucket_index(latency_ms)
            self._latency_buckets[bucket] += 1
            if algorithm is not None:
                summary = self._latency_by_algorithm.setdefault(
                    algorithm,
                    [0, 0.0, math.inf, 0.0, [0] * len(LATENCY_BUCKETS_MS)],
                )
                summary[0] += 1
                summary[1] += latency_ms
                summary[2] = min(summary[2], latency_ms)
                summary[3] = max(summary[3], latency_ms)
                summary[4][bucket] += 1
            self._disk_reads += disk_reads
            self._buffer_hits += buffer_hits
            self._read_retries += read_retries

    def record_shed(self) -> None:
        """One request shed at admission (queue over the threshold)."""
        with self._lock:
            self._shed += 1

    def record_breaker_rejection(self) -> None:
        """One request refused because its pair's breaker was open."""
        with self._lock:
            self._breaker_rejections += 1

    def record_stale_served(self) -> None:
        """One breaker-open request answered from the stale stock."""
        with self._lock:
            self._stale_served += 1

    def record_storage_fault(self, error_type: str) -> None:
        """One execution failed with a storage error of this type."""
        with self._lock:
            self._storage_faults[error_type] = (
                self._storage_faults.get(error_type, 0) + 1
            )

    def record_parallel_fallback(self) -> None:
        """One CPQ degraded from the partitioned executor to serial."""
        with self._lock:
            self._parallel_fallbacks += 1

    def record_partial_response(self) -> None:
        """One sharded CPQ answered from surviving shards only."""
        with self._lock:
            self._partial_responses += 1

    @staticmethod
    def _bucket_index(latency_ms: float) -> int:
        for i, edge in enumerate(LATENCY_BUCKETS_MS):
            if latency_ms <= edge:
                return i
        return len(LATENCY_BUCKETS_MS) - 1

    def record_cache_miss(self) -> None:
        with self._lock:
            self._cache_misses += 1

    def record_planner_decision(self, algorithm: str) -> None:
        """Tally one planner choice (only planner-made, not explicit)."""
        with self._lock:
            self._planner[algorithm] = self._planner.get(algorithm, 0) + 1

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._queue_depth_max = max(self._queue_depth_max, depth)

    def record_trace(self, root_span) -> None:
        """Fold one finished request trace into the span rollups.

        Walks the :class:`repro.obs.Span` tree and accumulates, per
        span name, how many spans ran and their total wall time; the
        snapshot exposes these under ``"spans"`` so operators see
        where traced queries spend their time (plan vs. traverse vs.
        heap) without shipping whole traces.
        """
        with self._lock:
            for span in root_span.walk():
                aggregate = self._spans.setdefault(span.name, [0, 0.0])
                aggregate[0] += 1
                aggregate[1] += span.duration_ms

    # -- reading -----------------------------------------------------------

    @property
    def planner_decisions(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._planner)

    def snapshot(self, cache_size: Optional[int] = None, *,
                 reset: bool = False) -> dict:
        """A JSON-serialisable view of every metric.

        With ``reset=True`` the counters are zeroed *atomically* with
        the read, under the same lock: every recorded query lands in
        exactly one snapshot window, never two and never none.  The
        returned dict is always the pre-reset view.  (The process-wide
        ``KERNEL_STATS`` tallies are shared with non-service callers
        and are never reset here.)
        """
        with self._lock:
            hits, misses = self._cache_hits, self._cache_misses
            looked_up = hits + misses
            buckets = self._bucket_dict(self._latency_buckets)
            snapshot = {
                "queries": {
                    "submitted": self._submitted,
                    "by_status": dict(self._statuses),
                    "by_kind": dict(self._kinds),
                },
                "latency_ms": {
                    "count": self._latency_count,
                    "total": self._latency_total,
                    "mean": (self._latency_total / self._latency_count
                             if self._latency_count else 0.0),
                    "min": (self._latency_min
                            if self._latency_count else 0.0),
                    "max": self._latency_max,
                    "buckets": buckets,
                    "by_algorithm": {
                        name: {
                            "count": count,
                            "total": total,
                            "mean": total / count if count else 0.0,
                            "min": lo if count else 0.0,
                            "max": hi,
                            "buckets": self._bucket_dict(algo_buckets),
                        }
                        for name, (count, total, lo, hi, algo_buckets)
                        in sorted(self._latency_by_algorithm.items())
                    },
                },
                "planner": dict(self._planner),
                "cache": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / looked_up if looked_up else 0.0,
                },
                "io": {
                    "disk_reads": self._disk_reads,
                    "buffer_hits": self._buffer_hits,
                    "read_retries": self._read_retries,
                },
                "queue": {
                    "depth": self._queue_depth,
                    "max_depth": self._queue_depth_max,
                },
                # Fault handling: shed load, breaker activity, stale
                # serves and the storage errors behind them (see
                # docs/RESILIENCE.md for the taxonomy).
                "resilience": {
                    "shed": self._shed,
                    "breaker_rejections": self._breaker_rejections,
                    "stale_served": self._stale_served,
                    "parallel_fallbacks": self._parallel_fallbacks,
                    "partial_responses": self._partial_responses,
                    "storage_faults": dict(self._storage_faults),
                },
                # Process-wide pairwise-kernel tallies (calls and entry
                # pairs per kernel), as observed.
                "kernels": KERNEL_STATS.snapshot(),
                "spans": {
                    name: {
                        "count": count,
                        "total_ms": round(total_ms, 3),
                        "mean_ms": round(total_ms / count, 3) if count
                                   else 0.0,
                    }
                    for name, (count, total_ms) in sorted(
                        self._spans.items()
                    )
                },
            }
            if reset:
                self._reset_locked()
        if cache_size is not None:
            snapshot["cache"]["size"] = cache_size
        return snapshot

    def reset(self) -> dict:
        """Zero every counter and return the final pre-reset snapshot.

        Equivalent to ``snapshot(reset=True)``; the read-and-zero is
        one critical section, so concurrent :meth:`record_query` calls
        are attributed to exactly one window.
        """
        return self.snapshot(reset=True)

    @staticmethod
    def _bucket_dict(counts) -> Dict[str, int]:
        return {
            ("+inf" if math.isinf(edge) else f"<={edge:g}ms"): count
            for edge, count in zip(LATENCY_BUCKETS_MS, counts)
        }

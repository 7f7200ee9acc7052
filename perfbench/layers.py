"""The per-layer metrics of the traced run, computed from one window.

Every workload reports every metric; a layer the workload does not
cross reads 0 (the prediction for that workload is "flat").  Time
metrics are per attempted query unless their name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: name -> unit, in report order.
PER_LAYER = {
    "core.traverse_ms": "ms",
    "core.node_pairs_per_query": "count",
    "core.distance_computations_per_query": "count",
    "core.queue_inserts_per_query": "count",
    "geometry.kernel_ms_per_query": "ms",
    "geometry.kernel_calls_per_query": "count",
    "geometry.kernel_elements_per_query": "count",
    "storage.disk_accesses_per_query": "count",
    "storage.page_reads_per_query": "count",
    "storage.buffer_hit_rate": "fraction",
    "storage.read_page_ms_per_query": "ms",
    "storage.read_failures": "count",
    "storage.wal_bytes_per_point": "B",
    "storage.wal_sync_ms": "ms",
    "storage.checkpoints": "count",
    "storage.checkpoint_ms": "ms",
    "storage.snapshot_pending_pages_max": "count",
    "rtree.insert_ms_per_batch": "ms",
    "rtree.pages_written_per_point": "count",
    "rtree.bulk_load_s": "s",
    "rtree.commit_p50_ms": "ms",
    "rtree.commit_p90_ms": "ms",
    "rtree.commit_failures": "count",
    "rtree.writer_lag_p90_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.plan_ms": "ms",
    "service.unavailable": "count",
    "service.rejected": "count",
    "service.cache_hit_rate": "fraction",
    "query.cpql_parse_ms": "ms",
    "net.roundtrip_ms": "ms",
    "net.edge_ms": "ms",
    "net.wire_encode_ms": "ms",
    "net.wire_decode_ms": "ms",
    "net.request_bytes": "B",
    "net.response_bytes": "B",
    "net.scatter_gather_ms": "ms",
    "net.frame_decode_ms": "ms",
    "net.frame_bytes_per_query": "B",
    "net.chunks_per_query": "count",
    "net.retries": "count",
    "net.hedges": "count",
    "net.hedge_win_rate": "fraction",
    "net.dedup_dropped": "count",
    "obs.trace_overhead_pct": "%",
}


@dataclass
class Extras:
    """Layer figures a workload measures outside the span recorder."""

    kernel_calls: int = 0
    kernel_elements: int = 0
    bulk_load_s: float = 0.0
    values: Dict[str, float] = field(default_factory=dict)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(recorder, tally, extras: Extras, untraced_qps: float,
              traced_qps: float, edge_ms: Optional[float] = None
              ) -> Dict[str, float]:
    n = max(1, tally.attempted)
    executed = max(1, tally.executed)
    ms = 1000.0
    io = tally.buffer_hits + tally.disk_accesses
    out = {
        "core.traverse_ms": recorder.self_s("core.") * ms / n,
        "core.node_pairs_per_query": tally.node_pairs / executed,
        "core.distance_computations_per_query":
            tally.distance_computations / executed,
        "core.queue_inserts_per_query": tally.queue_inserts / executed,
        "geometry.kernel_ms_per_query":
            recorder.self_s("geometry.") * ms / n,
        "geometry.kernel_calls_per_query": extras.kernel_calls / n,
        "geometry.kernel_elements_per_query": extras.kernel_elements / n,
        "storage.disk_accesses_per_query": tally.disk_accesses / executed,
        "storage.page_reads_per_query":
            recorder.calls("storage.read_page") / n,
        "storage.buffer_hit_rate": _ratio(tally.buffer_hits, io),
        "storage.read_page_ms_per_query":
            (recorder.total_s("storage.read_page")
             + recorder.total_s("storage.deserialize")) * ms / n,
        "storage.read_failures": recorder.raised("storage.read_page"),
        "storage.wal_sync_ms": _ratio(
            recorder.total_s("storage.wal_sync") * ms,
            recorder.calls("storage.wal_sync")),
        "storage.checkpoint_ms": _ratio(
            recorder.total_s("rtree.checkpoint_wal") * ms,
            recorder.calls("rtree.checkpoint_wal")),
        "rtree.insert_ms_per_batch": _ratio(
            recorder.total_s("rtree.insert_many") * ms,
            recorder.calls("rtree.insert_many")),
        "rtree.bulk_load_s": extras.bulk_load_s,
        "service.queue_wait_ms": _ratio(
            recorder.value_sum("service.queue_wait_s") * ms,
            recorder.value_count("service.queue_wait_s")),
        "service.plan_ms": _ratio(recorder.total_s("service.plan") * ms,
                                  recorder.calls("service.plan")),
        "service.unavailable": tally.failures.get("unavailable", 0)
        + tally.failures.get("stale", 0),
        "service.rejected": tally.failures.get("rejected", 0),
        "service.cache_hit_rate": _ratio(tally.cached, n),
        "query.cpql_parse_ms": _ratio(
            recorder.total_s("query.cpql_parse") * ms,
            recorder.calls("query.cpql_parse")),
        "net.roundtrip_ms": _ratio(
            recorder.total_s("net.roundtrip") * ms,
            recorder.calls("net.roundtrip")),
        "net.edge_ms": edge_ms if edge_ms is not None else 0.0,
        "net.wire_encode_ms": recorder.self_s("net.wire_encode") * ms / n,
        "net.wire_decode_ms": recorder.self_s("net.wire_decode") * ms / n,
        "net.request_bytes": _ratio(
            recorder.value_sum("net.request_bytes"),
            recorder.value_count("net.request_bytes")),
        "net.response_bytes": _ratio(
            recorder.value_sum("net.response_bytes"),
            recorder.value_count("net.response_bytes")),
        "net.scatter_gather_ms":
            recorder.total_s("net.scatter_gather") * ms / n,
        "net.frame_decode_ms": recorder.total_s("net.frame_decode") * ms / n,
        "net.frame_bytes_per_query":
            recorder.value_sum("net.frame_bytes") / n,
        "net.chunks_per_query": recorder.value_sum("net.chunks") / n,
        "obs.trace_overhead_pct": (
            (untraced_qps - traced_qps) / untraced_qps * 100.0
            if untraced_qps else 0.0),
    }
    for name in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(extras.values)
    return {name: float(out[name]) for name in PER_LAYER}

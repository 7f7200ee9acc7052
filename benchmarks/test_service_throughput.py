"""Service throughput smoke benchmark.

Measures end-to-end queries/sec of :class:`repro.service.QueryService`
at 1, 4 and 8 workers on an I/O-bound workload: small per-tree buffers
plus a simulated per-miss disk latency (which sleeps outside the buffer
lock and releases the GIL), so worker threads overlap their waits the
way threads overlap real disk seeks.  The scaling assertion backs the
ISSUE acceptance criterion: >= 2x queries/sec at 4 workers vs 1.

Skipped under CI (marker + env guard); run locally with

    PYTHONPATH=src python -m pytest benchmarks/test_service_throughput.py -s
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.rtree.bulk import bulk_load
from repro.service import CPQRequest, KNNRequest, QueryService

pytestmark = [
    pytest.mark.service_benchmark,
    pytest.mark.skipif(
        "CI" in os.environ,
        reason="throughput smoke benchmark is wall-clock sensitive; "
        "not meaningful on shared CI runners",
    ),
]

POINTS_PER_TREE = 3000
BUFFER_PAGES = 4          # per tree: almost every node access misses
READ_LATENCY = 0.0005     # 0.5 ms simulated seek per miss
REQUESTS = 96
WORKER_COUNTS = (1, 4, 8)


def build_trees():
    rng = random.Random(0x5EED)
    tree_p = bulk_load([(rng.random(), rng.random())
                        for __ in range(POINTS_PER_TREE)])
    tree_q = bulk_load([(rng.random(), rng.random())
                        for __ in range(POINTS_PER_TREE)])
    for tree in (tree_p, tree_q):
        tree.file.set_buffer_capacity(BUFFER_PAGES)
        tree.file.read_latency = READ_LATENCY
    return tree_p, tree_q


def build_requests():
    """Distinct requests so the result cache cannot collapse the work;
    the workload is bounded by (simulated) disk latency instead."""
    rng = random.Random(0xD15C)
    requests = []
    for i in range(REQUESTS):
        if i % 4 == 0:
            requests.append(CPQRequest(pair="bench", k=1 + i % 8,
                                       use_cache=False))
        else:
            requests.append(KNNRequest(
                pair="bench",
                point=(rng.random(), rng.random()),
                k=5,
                use_cache=False,
            ))
    return requests


def measure_qps(tree_p, tree_q, requests, workers: int) -> float:
    service = QueryService(workers=workers, queue_size=len(requests) + 8,
                           cache_size=0)
    service.register_pair("bench", tree_p, tree_q)
    try:
        start = time.perf_counter()
        # Admit the whole batch before awaiting any response, so it
        # runs at full pool width.
        handles = [service.submit(request) for request in requests]
        responses = [handle.result() for handle in handles]
        elapsed = time.perf_counter() - start
    finally:
        service.close()
    assert all(r.status == "ok" for r in responses)
    return len(requests) / elapsed


def test_service_throughput_scales_with_workers(results_dir):
    tree_p, tree_q = build_trees()
    requests = build_requests()

    # Warm the (tiny) tree buffers identically for every worker count.
    measure_qps(tree_p, tree_q, requests[:8], workers=1)

    qps = {}
    for workers in WORKER_COUNTS:
        qps[workers] = measure_qps(tree_p, tree_q, requests, workers)

    lines = [
        "service throughput smoke benchmark",
        f"  trees: {POINTS_PER_TREE} points each, "
        f"buffer {BUFFER_PAGES} pages/tree, "
        f"read latency {READ_LATENCY * 1000:.2f} ms/miss",
        f"  workload: {len(requests)} mixed K-CPQ / K-NN requests "
        "(result cache off)",
    ]
    for workers in WORKER_COUNTS:
        speedup = qps[workers] / qps[WORKER_COUNTS[0]]
        lines.append(
            f"  workers={workers}: {qps[workers]:7.1f} queries/sec "
            f"({speedup:.2f}x)"
        )
    output = "\n".join(lines)
    print()
    print(output)
    with open(os.path.join(results_dir, "service_throughput.txt"),
              "w") as handle:
        handle.write(output + "\n")

    assert qps[4] >= 2.0 * qps[1], (
        f"expected >= 2x throughput at 4 workers: {qps}"
    )

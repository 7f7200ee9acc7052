"""Intra-query parallel K-CPQ execution.

The paper's branch-and-bound traversals decompose naturally: expanding
both roots one or two levels yields a frontier of subtree pairs whose
point-pair populations are *disjoint* (every point lives in exactly one
leaf), so the frontier partitions the search space.  Each partition is
an independent K-CPQ over a smaller (root_P, root_Q) pair; running the
unmodified serial algorithm on each and merging the per-worker K-heaps
answers the original query.

Execution plan
--------------
1. **Partition** (coordinator thread): expand the root pair
   ``partition_depth`` (1 or 2) levels with the same candidate
   generation the serial algorithms use, then sort the resulting
   subtree pairs by MINMINDIST (ascending, stable) via the batched
   kernel :func:`repro.geometry.vectorized.batch_mindist_argsort` --
   closest work first, so the global bound tightens fastest.
2. **Fan out**: thread workers pull tasks from a shared cursor
   (dynamic load balancing).  Threads share the trees and their
   buffers, so simulated read latency overlaps across workers;
   multi-process execution is the job of the sharded network tier
   (:class:`repro.net.ShardManager`), not of this executor.
3. **Bound sharing**: workers periodically publish their K-heap
   snapshot and metric bound to a lock-guarded
   :class:`SharedBound`; ``z`` is the K-th smallest distance over the
   merged snapshots (disjoint partitions -- no pair is ever counted
   twice, keeping z conservative).  Tasks whose MINMINDIST exceeds z
   are skipped without any I/O; since tasks are sorted, the first skip
   ends the worker's loop.
4. **Merge**: per-worker pairs are re-offered to the coordinator's
   K-heap, whose canonical total-order tie-breaking
   (:mod:`repro.core.kheap`) makes the merged result a pure function
   of the offered set -- byte-identical to the serial path, tie order
   included.

Determinism
-----------
Both executors -- serial and threaded, at any refresh cadence --
maintain ``t >= d_K`` (the true K-th smallest distance): the K-heap
threshold is the K-th best of a *subset* of pairs, and the metric
bounds are upper bounds on ``d_K`` by construction (Section 3.8).
Pruning is strict (``> t``), so every pair with ``d <= d_K`` is
offered everywhere; the canonical K-heap then retains exactly the K
canonically-smallest pairs of the universe, regardless of discovery
order.  See ``docs/ARCHITECTURE.md`` ("Parallel execution").
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.engine import (
    CPQContext,
    CPQOptions,
    generate_candidates,
    traced_traversal,
)
from repro.core.result import ClosestPair, CPQResult
from repro.geometry.vectorized import batch_mindist_argsort
from repro.rtree.node import Node
from repro.rtree.tree import RTree

#: Supported partition depths (levels of root expansion).
PARTITION_DEPTHS = (1, 2)

#: Node-pair visits between bound refreshes inside a worker's task.
DEFAULT_REFRESH_INTERVAL = 32

#: Candidate-generation policy per algorithm -- the partitioner must
#: prune (or not) exactly like the algorithm it feeds, so a partition
#: is never dropped that the serial traversal would have descended.
_PARTITION_POLICY = {
    "naive": dict(prune=False, update_bound=False),
    "exh": dict(prune=True, update_bound=False),
    "sim": dict(prune=True, update_bound=True),
    "std": dict(prune=True, update_bound=True),
    "heap": dict(prune=True, update_bound=True),
    # CLIPPED = HEAP policy + range-clipped MINMINDIST.  (The constrained
    # suppression of update_bound happens inside generate_candidates via
    # ctx.constrained, so no constrained variants are needed here.)
    "clipped": dict(prune=True, update_bound=True, clip_mindist=True),
}


class _Aborted(Exception):
    """Internal: another worker failed; unwind quietly."""


@dataclass
class PartitionTask:
    """One subtree pair of the partition frontier."""

    node_p: Node
    node_q: Node
    minmin: float


@dataclass
class WorkerReport:
    """What one worker hands back to the coordinator."""

    worker_id: int
    pairs: List[ClosestPair] = field(default_factory=list)
    tasks_completed: int = 0
    publishes: int = 0
    #: :meth:`~repro.storage.stats.QueryStats.traversal_counters`
    #: (I/O is the coordinator's ledger: workers share the trees).
    counters: Dict[str, int] = field(default_factory=dict)
    wall_ms: float = 0.0


class SharedBound:
    """Lock-guarded global bound z shared by thread workers.

    Each worker *replaces* its own snapshot (it never appends), so the
    merged view holds every pair at most once even across repeated
    refreshes; combined with partition disjointness this keeps the
    K-th smallest merged distance a valid upper bound on the true
    ``d_K`` at all times.  ``z`` additionally folds in the workers'
    MINMAXDIST-derived metric bounds.
    """

    def __init__(self, k: int, initial: float = float("inf")):
        self.k = k
        self._lock = threading.Lock()
        self._snapshots: dict = {}
        self._metric_bound = initial
        #: Current global bound; read without the lock (a float read is
        #: atomic, and a stale value is merely less tight, never wrong).
        self.z = initial
        self.publishes = 0

    def publish(
        self,
        worker_id: int,
        pairs: List[ClosestPair],
        metric_bound: float = float("inf"),
    ) -> float:
        """Install a worker's snapshot; returns the refreshed z."""
        with self._lock:
            self.publishes += 1
            self._snapshots[worker_id] = pairs
            if metric_bound < self._metric_bound:
                self._metric_bound = metric_bound
            merged: List[ClosestPair] = []
            for snapshot in self._snapshots.values():
                merged.extend(snapshot)
            if len(merged) >= self.k:
                merged.sort()
                kth = merged[self.k - 1].distance
            else:
                kth = float("inf")
            self.z = min(kth, self._metric_bound)
            return self.z


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_tasks(ctx: CPQContext, request) -> List[PartitionTask]:
    """Expand the root pair into a sorted frontier of subtree pairs.

    Uses the same :func:`generate_candidates` machinery as the serial
    algorithms (same expansion sides, same conservative pruning), then
    orders the frontier by elementwise MINMINDIST through the batched
    kernel.  Mixed-height pairs follow the request's height strategy;
    leaf/leaf pairs pass through unexpanded.
    """
    policy = _PARTITION_POLICY[request.algorithm]
    options = CPQOptions(
        prune=policy["prune"],
        update_bound=policy["update_bound"],
        sort=False,
        height_strategy=request.height_strategy,
        maxmax_k_pruning=request.maxmax_pruning,
        clip_mindist=policy.get("clip_mindist", False),
    )
    frontier: List[Tuple[Node, Node]] = [(ctx.root_p, ctx.root_q)]
    for _ in range(request.partition_depth):
        if all(p.is_leaf and q.is_leaf for p, q in frontier):
            break
        expanded: List[Tuple[Node, Node]] = []
        for node_p, node_q in frontier:
            if node_p.is_leaf and node_q.is_leaf:
                expanded.append((node_p, node_q))
                continue
            ctx.check_cancelled()
            ctx.stats.node_pairs_visited += 1
            candidates = generate_candidates(ctx, node_p, node_q, options)
            for position in range(len(candidates)):
                expanded.append(candidates.child_nodes(ctx, position))
        frontier = expanded
    if not frontier:
        return []
    lo_p = np.array([p.mbr().lo for p, _ in frontier], dtype=float)
    hi_p = np.array([p.mbr().hi for p, _ in frontier], dtype=float)
    lo_q = np.array([q.mbr().lo for _, q in frontier], dtype=float)
    hi_q = np.array([q.mbr().hi for _, q in frontier], dtype=float)
    order, values = batch_mindist_argsort(
        lo_p, hi_p, lo_q, hi_q, ctx.metric
    )
    return [
        PartitionTask(frontier[i][0], frontier[i][1], float(values[i]))
        for i in map(int, order)
    ]


def run_chunk(ctx: CPQContext, request,
              chunk: Iterable[Tuple[int, int, float]]) -> int:
    """Run the request's algorithm over one MINMINDIST-ascending chunk
    of ``(page_p, page_q, minmin)`` tasks into ``ctx``'s K-heap;
    returns the tasks run.  The first task beyond the bound ends it.
    """
    runner = request.spec.runner
    completed = 0
    for page_p, page_q, minmin in chunk:
        if minmin > ctx.t:
            break
        ctx.root_p = ctx.tree_p.read_node(page_p)
        ctx.root_q = ctx.tree_q.read_node(page_q)
        runner(ctx, request)
        completed += 1
    return completed


# ---------------------------------------------------------------------------
# Thread workers
# ---------------------------------------------------------------------------

def _thread_worker(
    worker_id: int,
    ctx: CPQContext,
    request,
    tasks: List[PartitionTask],
    cursor: List[int],
    cursor_lock: threading.Lock,
    shared: SharedBound,
    stop: threading.Event,
    base_probe: Optional[Callable[[], None]],
) -> WorkerReport:
    runner = request.spec.runner
    wctx = CPQContext.for_request(
        ctx.tree_p,
        ctx.tree_q,
        request,
        roots=(ctx.root_p, ctx.root_q),
        root_areas=(ctx.root_area_p, ctx.root_area_q),
    )
    wctx.bound = ctx.bound
    report = WorkerReport(worker_id=worker_id)
    visits = 0

    def probe() -> None:
        nonlocal visits
        if stop.is_set():
            raise _Aborted
        if base_probe is not None:
            base_probe()
        visits += 1
        if visits % DEFAULT_REFRESH_INTERVAL == 0:
            report.publishes += 1
            wctx.update_bound(
                shared.publish(
                    worker_id, wctx.kheap.sorted_pairs(), wctx.bound
                )
            )

    wctx.cancel_check = probe
    start = time.perf_counter()
    try:
        while not stop.is_set():
            with cursor_lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(tasks):
                break
            task = tasks[index]
            if task.minmin > min(wctx.t, shared.z):
                break  # sorted ascending: nothing left can contribute
            wctx.root_p = task.node_p
            wctx.root_q = task.node_q
            runner(wctx, request)
            report.tasks_completed += 1
            report.publishes += 1
            wctx.update_bound(
                shared.publish(
                    worker_id, wctx.kheap.sorted_pairs(), wctx.bound
                )
            )
    except _Aborted:
        pass
    except BaseException:
        stop.set()
        raise
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    report.pairs = wctx.kheap.sorted_pairs()
    report.counters = wctx.stats.traversal_counters()
    return report


def _run_threads(
    ctx: CPQContext, request, tasks: List[PartitionTask]
) -> List[WorkerReport]:
    from concurrent.futures import ThreadPoolExecutor

    n = max(1, min(request.workers, len(tasks)))
    shared = SharedBound(request.k, initial=ctx.bound)
    cursor = [0]
    cursor_lock = threading.Lock()
    stop = threading.Event()
    base_probe = ctx.cancel_check
    with ThreadPoolExecutor(
        max_workers=n, thread_name_prefix="cpq-worker"
    ) as pool:
        futures = [
            pool.submit(
                _thread_worker,
                wid,
                ctx,
                request,
                tasks,
                cursor,
                cursor_lock,
                shared,
                stop,
                base_probe,
            )
            for wid in range(n)
        ]
        reports = [future.result() for future in futures]
    ctx.stats.extra.setdefault("parallel", {})["publishes"] = shared.publishes
    return reports


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parallel_k_closest_pairs(
    tree_p: RTree,
    tree_q: RTree,
    request,
    *,
    cancel_check: Optional[Callable[[], None]] = None,
    tracer=None,
) -> CPQResult:
    """Run one K-CPQ with ``request.workers`` parallel workers.

    Called by :func:`repro.core.api.k_closest_pairs` when the request
    asks for more than one worker; the result (pairs, tie order) is
    byte-identical to the serial path for every registered algorithm
    that sets ``supports_parallel``.
    """
    spec = request.spec
    ctx = CPQContext.for_request(
        tree_p, tree_q, request, cancel_check=cancel_check, tracer=tracer
    )
    if ctx.root_p is None or ctx.root_q is None:
        return ctx.result(spec.label)
    buffers = (tree_p.file.buffer, tree_q.file.buffer)
    base_contentions = sum(b.contentions for b in buffers)
    with traced_traversal(
        ctx,
        spec.label,
        timed=True,
        workers=request.workers,
        partition_depth=request.partition_depth,
    ):
        tasks = partition_tasks(ctx, request)
        reports = _run_threads(ctx, request, tasks)
        for report in reports:
            for pair in report.pairs:
                ctx.kheap.offer(pair)
            ctx.stats.fold_traversal(report.counters)
        completed = sum(r.tasks_completed for r in reports)
        info = ctx.stats.extra.setdefault("parallel", {})
        info.update(
            mode="thread",
            workers=len(reports),
            partition_depth=request.partition_depth,
            tasks=len(tasks),
            tasks_completed=completed,
            tasks_skipped=len(tasks) - completed,
            buffer_contentions=(
                sum(b.contentions for b in buffers) - base_contentions
            ),
        )
        if ctx.tracer.enabled:
            for report in reports:
                with ctx.tracer.span(
                    "worker", worker=report.worker_id
                ) as span:
                    span.annotate_timed(
                        tasks_completed=report.tasks_completed,
                        pairs=len(report.pairs),
                        node_pairs_visited=report.counters[
                            "node_pairs_visited"
                        ],
                        publishes=report.publishes,
                    )
                span.duration_ms = round(report.wall_ms, 3)
    return ctx.result(spec.label)

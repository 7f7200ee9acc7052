"""``ingest_mixed``: batched writes beside closed-loop reads, in-process.

P = ``sequoia_like(10000)`` is file-backed and live
(``enable_live_mutation`` with an fsync ``WriteAheadLog`` and a
``WALCheckpointer`` at 1 MiB); Q = ``uniform_points(10000)`` is static.
Each tree has a 64-page buffer (the 128-page pair budget of
``kcpq_sequoia``; about 8 % of a tree).

An open-loop writer thread commits one ``tree.batch()`` +
``insert_many`` of 32 seeded uniform points every 100 ms; commit
latency runs from when the batch was due, and how late the writer
started each batch is reported too.  One closed-loop reader calls
``QueryService.execute`` (one worker, result cache on) with heap,
cycling K through 1, 10, 100 from a seeded start.  Cycling rather than
drawing K at random keeps the reader from spinning on result-cache
hits between commits: consecutive queries differ in K, so nearly every
one executes.

The generation each query pinned is captured at the tree's ``pin``;
every answer is checked after the window against exact distances for
that generation's point set (the base set plus the batches committed
up to it), from ``scipy.spatial.cKDTree``.

P and Q are fixed; the seed draws the written points and the start of
the K cycle, so run-to-run spread is the system's, not the data's.  Answers served stale from
the cache while the pair's breaker is open, and every failed query,
count as failures.
"""

from __future__ import annotations

import os
import threading
import time
from types import SimpleNamespace

import harness
import layers

SETUP_REPS = 3
#: Pin the run to one CPU (see ``harness.pin_to_one_cpu``).
ONE_CPU = True
KS = (1, 10, 100)
PAIR = "default"
BUFFER_PER_TREE = 64
BATCH_POINTS = 32
PERIOD_S = 0.1
CHECKPOINT_BYTES = 1 << 20


def _top(values, k):
    import numpy as np

    values = np.asarray(values).ravel()
    cut = min(k, values.size)
    return np.sort(np.partition(values, cut - 1)[:cut])


def prepare(ctx) -> SimpleNamespace:
    import numpy as np
    from scipy.spatial import cKDTree

    from repro.datasets import sequoia_like, uniform_points

    n = 800 if ctx.tiny else 10_000
    inputs = SimpleNamespace()
    inputs.p = sequoia_like(n)
    inputs.q = uniform_points(n)
    batches = int(ctx.seconds / PERIOD_S) + 60
    rng = np.random.default_rng(ctx.seed + 104_729)
    inputs.batches = rng.random((batches, BATCH_POINTS, 2))
    kmax = max(KS)
    index = cKDTree(inputs.q)
    dist, __ = index.query(inputs.p, k=min(kmax, n))
    inputs.base_top = _top(dist, kmax)
    dist, __ = index.query(inputs.batches.reshape(-1, 2), k=min(kmax, n))
    dist = np.asarray(dist).reshape(batches, -1)
    inputs.batch_top = [_top(row, kmax) for row in dist]
    inputs.base_set = set(map(tuple, inputs.p.tolist()))
    inputs.batch_of = {}
    for b, points in enumerate(inputs.batches.tolist()):
        for point in points:
            inputs.batch_of[tuple(point)] = b
    inputs.q_set = set(map(tuple, inputs.q.tolist()))
    return inputs


class State:
    def __init__(self, ctx):
        self.dir = harness.scratch_dir(ctx.root, "ingest-")
        self.stores = []
        self.wal = self.checkpointer = self.service = None
        self.bulk_load_s = 0.0
        #: Batches committed, in commit order; generation g of P holds
        #: the base set plus ``committed[:g]``.
        self.committed = []
        self.next_batch = 0
        self.pinned = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        if self.checkpointer is not None:
            self.checkpointer.close()
        if self.wal is not None:
            self.wal.close()
        self.service = self.checkpointer = self.wal = None
        for store in self.stores:
            store.close()
        self.stores = []
        harness.remove_tree(self.dir)


def setup(ctx, inputs) -> State:
    from repro.service import CPQRequest, QueryService
    from repro.storage.wal import WALCheckpointer, WriteAheadLog

    state = State(ctx)
    try:
        tree_p = state.tree_p = harness.build_tree(
            state, "p", inputs.p, BUFFER_PER_TREE)
        state.tree_q = harness.build_tree(state, "q", inputs.q,
                                          BUFFER_PER_TREE)
        state.wal = WriteAheadLog(os.path.join(state.dir, "p.wal"),
                                  sync_mode="fsync")
        tree_p.enable_live_mutation(state.wal)
        # Looked up per call, so a traced window sees the wrapper.
        state.checkpointer = WALCheckpointer(
            state.wal, lambda: tree_p.checkpoint_wal(),
            threshold_bytes=CHECKPOINT_BYTES).start()
        pin = tree_p.pin

        def pin_and_remember():
            snapshot = pin()
            state.pinned = snapshot
            return snapshot

        tree_p.pin = pin_and_remember
        state.service = QueryService(workers=1)
        state.service.register_pair(PAIR, tree_p, state.tree_q)
        for k in KS:
            response = state.service.execute(
                CPQRequest(pair=PAIR, k=k, algorithm="heap"))
            if not response.ok:
                raise RuntimeError(f"warm-up K={k}: {response.status} "
                                   f"{response.error}")
    except BaseException:
        state.close()
        raise
    return state


class _Writer(threading.Thread):
    """Open loop: one batch due every ``PERIOD_S`` from the start."""

    def __init__(self, inputs, state):
        super().__init__(name="bench-writer", daemon=True)
        self.inputs = inputs
        self.state = state
        self.stop = threading.Event()
        self.commit_ms = []
        self.lag_ms = []
        self.failures = {}
        self.pending_max = 0
        self.points = 0

    def run(self) -> None:
        state, tree = self.state, self.state.tree_p
        due = time.perf_counter() + PERIOD_S
        while not self.stop.is_set():
            wait = due - time.perf_counter()
            if wait > 0 and self.stop.wait(wait):
                return
            b = state.next_batch
            if b >= len(self.inputs.batches):
                return
            state.next_batch += 1
            points = [tuple(p) for p in self.inputs.batches[b].tolist()]
            oids = [10_000_000 + b * BATCH_POINTS + j
                    for j in range(len(points))]
            self.lag_ms.append((time.perf_counter() - due) * 1000.0)
            try:
                with tree.batch():
                    tree.insert_many(points, oids)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                key = f"{type(exc).__name__}: {exc}"[:120]
                self.failures[key] = self.failures.get(key, 0) + 1
            else:
                self.commit_ms.append((time.perf_counter() - due) * 1000.0)
                state.committed.append(b)
                self.points += len(points)
                self.pending_max = max(self.pending_max,
                                       tree.snapshots.pending_pages())
            due += PERIOD_S


class _Answers:
    """Successful answers awaiting the generation-exact check."""

    def __init__(self):
        self.items = []

    def add(self, index, generation, k, pairs):
        self.items.append((index, generation, k, pairs))

    def verify(self, inputs, state, tally) -> None:
        import numpy as np

        position = {b: i for i, b in enumerate(state.committed)}
        tops = {0: inputs.base_top}
        top = inputs.base_top
        for g in range(1, len(state.committed) + 1):
            top = _top(np.concatenate(
                [top, inputs.batch_top[state.committed[g - 1]]]), max(KS))
            tops[g] = top
        for index, generation, k, pairs in self.items:
            if generation not in tops:
                tally.retract_ok(index, "wrong",
                                 f"generation {generation} never committed")
                continue

            def in_p(point, g=generation):
                if point in inputs.base_set:
                    return True
                b = inputs.batch_of.get(point)
                return b is not None and position.get(b, g) < g

            problem = harness.check_pairs(pairs, tops[generation][:k],
                                          q_points=inputs.q_set)
            if not problem:
                for pair in pairs:
                    if not in_p(tuple(pair.p)):
                        problem = (f"p {pair.p} is not in P at generation "
                                   f"{generation}")
                        break
            if problem:
                tally.retract_ok(index, "wrong", problem)


class _Counters:
    """Per-query counters of one service answer.

    ``QueryResponse.disk_reads`` / ``buffer_hits`` are the service's
    per-query deltas; the result's own ``stats.disk_accesses`` also
    folds in the trees' lifetime counters, which the service never
    resets.
    """

    def __init__(self, response):
        stats = response.result.stats
        self.node_pairs_visited = stats.node_pairs_visited
        self.distance_computations = stats.distance_computations
        self.queue_inserts = stats.queue_inserts
        self.disk_accesses = response.disk_reads
        self.buffer_hits = response.buffer_hits


def drive(ctx, inputs, state, seconds) -> harness.Window:
    from repro.service import CPQRequest

    tally = harness.Tally()
    answers = _Answers()
    wal0 = (state.wal.stats.bytes_appended, state.wal.stats.checkpoints)
    writes0 = state.tree_p.stats.disk_writes
    calls0, elements0 = harness.kernel_totals()
    start = ctx.seed % len(KS)
    writer = _Writer(inputs, state)
    writer.start()
    # Start the clock at the first commit: until then the reader would
    # spin on result-cache hits left from the previous generation.
    first = len(state.committed) + 1
    while len(state.committed) < first and writer.is_alive():
        time.sleep(0.005)
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    try:
        # Whole K cycles only, so every window weighs each K alike.
        while i % len(KS) or time.perf_counter() < deadline:
            k = KS[(start + i) % len(KS)]
            request = CPQRequest(pair=PAIR, k=k, algorithm="heap")
            t0 = time.perf_counter()
            with harness.request_scope(ctx, f"q{i}"):
                response = state.service.execute(request)
            latency_ms = (time.perf_counter() - t0) * 1000.0
            generation = state.pinned.generation
            i += 1
            if not response.ok:
                tally.fail(harness.failure_of(response),
                           f"{response.status}: {response.error}")
                continue
            if response.stale:
                tally.fail("stale", "stale answer while the breaker is open")
                continue
            pairs = list(response.result.pairs)
            if ctx.inject_wrong and not answers.items:
                pairs[0] = type(pairs[0])(pairs[0].distance * 1.5,
                                          pairs[0].p, pairs[0].q)
            answers.add(len(tally.latencies_ms), generation, k, pairs)
            tally.ok(latency_ms,
                     None if response.cached else _Counters(response),
                     cached=response.cached)
    finally:
        writer.stop.set()
        writer.join(30.0)
    measured = time.perf_counter() - started
    if writer.is_alive():
        raise RuntimeError("writer thread did not stop")
    answers.verify(inputs, state, tally)
    calls1, elements1 = harness.kernel_totals()
    points = max(1, writer.points)
    commit = writer.commit_ms
    values = {
        "storage.wal_bytes_per_point":
            (state.wal.stats.bytes_appended - wal0[0]) / points,
        "storage.checkpoints": state.wal.stats.checkpoints - wal0[1],
        "storage.snapshot_pending_pages_max": writer.pending_max,
        "rtree.pages_written_per_point":
            (state.tree_p.stats.disk_writes - writes0) / points,
        "rtree.commit_p50_ms": harness.median(commit) if commit else 0.0,
        "rtree.commit_p90_ms":
            harness.percentile(commit, 90.0) if commit else 0.0,
        "rtree.commit_failures": sum(writer.failures.values()),
        "rtree.writer_lag_p90_ms":
            harness.percentile(writer.lag_ms, 90.0) if writer.lag_ms
            else 0.0,
    }
    extras = layers.Extras(kernel_calls=calls1 - calls0,
                           kernel_elements=elements1 - elements0,
                           bulk_load_s=state.bulk_load_s, values=values)
    report = {
        "commits": len(commit),
        "commit_p50_ms": values["rtree.commit_p50_ms"],
        "commit_p90_ms": values["rtree.commit_p90_ms"],
        "commit_failures": writer.failures,
        "writer_lag_p50_ms": (harness.median(writer.lag_ms)
                              if writer.lag_ms else 0.0),
        "writer_lag_p90_ms": values["rtree.writer_lag_p90_ms"],
        "writer_lag_max_ms": max(writer.lag_ms, default=0.0),
        "disk_accesses_per_query": tally.disk_accesses
        / max(1, tally.executed),
        "cache_hits": tally.cached,
        "generation": state.tree_p.committed().generation,
    }
    return harness.Window(tally, measured, extras, report=report)

"""``serve_http``: the full network tier over loopback.

``NetServer`` on 127.0.0.1, then ``QueryService`` with the result
cache off, then ``ShardManager`` with 2 spawned shard processes, over
P = ``sequoia_like(5000)`` and Q = ``uniform_points(5000)`` on
file-backed pages.  Each shard's buffers hold both trees, so after
warm-up the working set lives in the shards' caches and traversal is
short; the time goes to the layers around it (CPQL parse, HTTP, wire
codec, queue, scatter, CRC frames, K-heap merge).

Two benchmark threads each drive one persistent ``NetClient`` in a
closed loop over six request shapes: ``POST /v1/query`` (heap) and
``POST /v1/sql`` (``SELECT CLOSEST PAIRS K n FROM pset, qset USING
heap`` sent with ``pair=default``; ``P`` and ``Q`` are CPQL keywords,
so the dataset names are spelled out), each with K in {1, 10, 100}.
Each client runs the six shapes in whole cycles, in a seeded order, so
every window weighs each shape alike.  Every answer must be
byte-identical, tie order included, to serial ``k_closest_pairs``
computed at set-up, whose distances are in turn checked against a
NumPy brute force over all 5000 x 5000 pairs.

Set-up warms the shards with a fixed number of rounds of every shape;
the last round must read no page from disk in any shard.

P and Q are fixed; the seed draws each client's order of the shapes.
"""

from __future__ import annotations

import random
import threading
import time
from types import SimpleNamespace

import harness
import layers

SETUP_REPS = 5
#: Pin the run to one CPU (see ``harness.pin_to_one_cpu``).
ONE_CPU = False
SHARDS = 2
CLIENTS = 2
KS = (1, 10, 100)
PAIR = "default"
SHAPES = [(kind, k) for kind in ("query", "sql") for k in KS]
#: Rounds of every shape run at set-up; the first fills the shard
#: buffers, and the last must read no page.
WARM_ROUNDS = 3


def _brute_force(p, q, k: int):
    """The ``k`` smallest P x Q distances by exhaustive NumPy."""
    import numpy as np

    best = np.empty(0)
    for start in range(0, len(p), 500):
        block = p[start:start + 500]
        d = np.sqrt(((block[:, None, :] - q[None, :, :]) ** 2).sum(-1))
        merged = np.concatenate([best, d.ravel()])
        cut = min(k, merged.size)
        best = np.partition(merged, cut - 1)[:cut]
    return np.sort(best)


def prepare(ctx) -> SimpleNamespace:
    from repro.datasets import sequoia_like, uniform_points

    n = 600 if ctx.tiny else 5000
    inputs = SimpleNamespace()
    inputs.p = sequoia_like(n)
    inputs.q = uniform_points(n)
    inputs.expected = _brute_force(inputs.p, inputs.q, max(KS))
    return inputs


class State:
    def __init__(self, ctx):
        self.dir = harness.scratch_dir(ctx.root, "serve-")
        self.stores = []
        self.clients = []
        self.server = self.service = self.manager = None
        self.bulk_load_s = 0.0
        self.reference = {}

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.close()  # listener, service, then shards
        else:
            if self.service is not None:
                self.service.close()
            if self.manager is not None:
                self.manager.close()
        self.server = self.service = self.manager = None
        for store in self.stores:
            store.close()
        self.stores = []
        harness.remove_tree(self.dir)


def _request(client, kind: str, k: int):
    from repro.service import CPQRequest

    if kind == "query":
        return client.query(CPQRequest(pair=PAIR, k=k, algorithm="heap",
                                       use_cache=False))
    return client.sql(f"SELECT CLOSEST PAIRS K {k} FROM pset, qset USING heap",
                      pair=PAIR, use_cache=False)


def setup(ctx, inputs) -> State:
    from repro.net import NetClient, NetServer, ShardManager, tree_spec
    from repro.service import QueryService

    state = State(ctx)
    try:
        state.tree_p = harness.build_tree(state, "p", inputs.p)
        state.tree_q = harness.build_tree(state, "q", inputs.q)
        specs = [tree_spec(tree, buffer_capacity=tree.node_count() + 64)
                 for tree in (state.tree_p, state.tree_q)]
        state.manager = ShardManager(specs[0], specs[1], shards=SHARDS,
                                     pair=PAIR)
        state.service = QueryService(
            workers=CLIENTS, cache_size=0,
            cpq_executor=state.manager.service_executor())
        state.service.register_pair(PAIR, state.manager.tree_p,
                                    state.manager.tree_q)
        state.server = NetServer(state.service, manager=state.manager)
        state.server.start_in_thread()
        state.clients = [NetClient("127.0.0.1", state.server.port,
                                   timeout_s=30.0)
                         for __ in range(CLIENTS)]
        _warm(state)
    except BaseException:
        state.close()
        raise
    return state


def _warm(state) -> None:
    """Run every request shape ``WARM_ROUNDS`` times; the last round
    must be served from the shards' buffers alone."""
    client = state.clients[0]
    for __ in range(WARM_ROUNDS):
        misses = 0
        for kind, k in SHAPES:
            response = _request(client, kind, k)
            if not response.ok:
                raise RuntimeError(
                    f"warm-up {kind} K={k}: {response.status} "
                    f"{response.error}")
            misses += _shard_io(response.result).disk_accesses
    if misses:
        raise RuntimeError(f"shard buffers still missed {misses} pages "
                           f"after {WARM_ROUNDS} warm-up rounds")


def check_setup(ctx, inputs, state) -> None:
    from repro.core.api import CPQRequest, k_closest_pairs

    for k in KS:
        result = k_closest_pairs(state.tree_p, state.tree_q,
                                 request=CPQRequest(k=k, algorithm="heap"))
        problem = harness.check_pairs(result.pairs, inputs.expected[:k])
        if problem:
            raise RuntimeError(f"serial reference K={k} is wrong: {problem}")
        state.reference[k] = [
            (p.distance, tuple(p.p), tuple(p.q), p.p_oid, p.q_oid)
            for p in result.pairs]


class _ShardIO:
    """A result's counters with I/O narrowed to the shards' own reads.

    The merged ``stats.disk_accesses`` / ``buffer_hits`` of a sharded
    answer also fold in the coordinator trees' lifetime counters, which
    the service never resets; the per-query shard figures are in
    ``stats.extra["net"]["shard_io"]``.
    """

    def __init__(self, stats):
        io = stats.extra.get("net", {}).get("shard_io", {})
        self.node_pairs_visited = stats.node_pairs_visited
        self.distance_computations = stats.distance_computations
        self.queue_inserts = stats.queue_inserts
        self.disk_accesses = int(io.get("disk_reads", 0))
        self.buffer_hits = int(io.get("buffer_hits", 0))


def _shard_io(result) -> _ShardIO:
    return _ShardIO(result.stats)


def _client_loop(ctx, state, index, deadline, tally, edges, stop):
    from repro.net.client import NetError
    from repro.net.wire import WireError

    client = state.clients[index]
    order = list(SHAPES)
    random.Random(ctx.seed * 1000 + index).shuffle(order)
    i = 0
    # Whole cycles of the six shapes only.
    while not stop.is_set() and (i % len(order)
                                 or time.perf_counter() < deadline):
        kind, k = order[i % len(order)]
        t0 = time.perf_counter()
        try:
            with harness.request_scope(ctx, f"c{index}-{i}"):
                response = _request(client, kind, k)
        except (NetError, WireError, OSError) as exc:
            tally.fail("transport", f"{type(exc).__name__}: {exc}")
            i += 1
            continue
        latency_ms = (time.perf_counter() - t0) * 1000.0
        i += 1
        if not response.ok:
            tally.fail(harness.failure_of(response),
                       f"{response.status}: {response.error}")
            continue
        if response.partial:
            tally.fail("error", "partial answer")
            continue
        got = [(p.distance, tuple(p.p), tuple(p.q), p.p_oid, p.q_oid)
               for p in response.result.pairs]
        if ctx.inject_wrong and index == 0 and i == 1:
            got[0] = (got[0][0] * 1.5, *got[0][1:])
        if got != state.reference[k]:
            tally.fail("wrong", f"{kind} K={k}: answer differs from the "
                                "serial reference")
            continue
        tally.ok(latency_ms, _shard_io(response.result))
        edges.append(latency_ms - response.latency_ms)


def drive(ctx, inputs, state, seconds) -> harness.Window:
    tally = harness.Tally()
    edges = []
    stop = threading.Event()
    counters0 = dict(state.manager.counters)
    calls0, elements0 = harness.kernel_totals()
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=_client_loop, name=f"bench-client-{i}",
                         args=(ctx, state, i, deadline, tally, edges, stop),
                         daemon=True)
        for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join(seconds + 90.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
    finally:
        stop.set()
    measured = time.perf_counter() - started
    calls1, elements1 = harness.kernel_totals()
    counters = {key: state.manager.counters.get(key, 0) - counters0.get(key, 0)
                for key in ("retries", "hedges", "hedge_wins",
                            "dedup_dropped")}
    extras = layers.Extras(
        kernel_calls=calls1 - calls0,
        kernel_elements=elements1 - elements0,
        bulk_load_s=state.bulk_load_s,
        values={
            "net.retries": counters["retries"],
            "net.hedges": counters["hedges"],
            "net.hedge_win_rate": (counters["hedge_wins"] / counters["hedges"]
                                   if counters["hedges"] else 0.0),
            "net.dedup_dropped": counters["dedup_dropped"],
        })
    report = {"net_counters": counters}
    return harness.Window(tally, measured, extras,
                          edge_ms=harness.median(edges) if edges else 0.0,
                          report=report)

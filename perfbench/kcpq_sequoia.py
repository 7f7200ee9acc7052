"""``kcpq_sequoia``: the paper's experiment shape, called in-process.

P is the 62,536-point SEQUOIA stand-in and Q as many uniform points,
both STR bulk-loaded on file-backed 1 KiB pages (M = 21, 4,837 nodes
per tree).  One caller runs serial ``k_closest_pairs`` in a closed
loop, in whole cycles (the window ends at the first cycle boundary past
``--seconds``), over {heap, std, exh} x K in {1, 100} with ``buffer_pages=128``
(about 1 % of the trees) and no simulated read latency; the buffer and
the I/O counters reset before every query, so each request type makes
exactly the same disk accesses every time it runs.

The data sets are fixed (the paper measures one real data set); the
seed rotates where the request cycle starts.  Every answer is checked
against distances from ``scipy.spatial.cKDTree``, and a request whose
disk-access count differs from its first execution counts as wrong.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import harness
import layers

SETUP_REPS = 3
#: Pin the run to one CPU (see ``harness.pin_to_one_cpu``).
ONE_CPU = True
BUFFER_PAGES = 128
CYCLE = [(algorithm, k) for algorithm in ("heap", "std", "exh")
         for k in (1, 100)]


def prepare(ctx) -> SimpleNamespace:
    from repro.datasets import sequoia_like, uniform_points

    n = 1500 if ctx.tiny else 62_536
    inputs = SimpleNamespace()
    inputs.p = sequoia_like(n)
    inputs.q = uniform_points(n)
    start = ctx.seed % len(CYCLE)
    inputs.cycle = CYCLE[start:] + CYCLE[:start]
    inputs.expected = harness.candidate_distances(
        inputs.p, inputs.q, max(k for __, k in CYCLE))
    inputs.p_set = harness.PointSet(inputs.p)
    inputs.q_set = harness.PointSet(inputs.q)
    return inputs


class State:
    def __init__(self, ctx):
        self.dir = harness.scratch_dir(ctx.root, "kcpq-")
        self.stores = []
        self.bulk_load_s = 0.0
        self.tree_p = self.tree_q = None
        #: request -> disk accesses of its first execution
        self.disk_accesses = {}

    def close(self) -> None:
        for store in self.stores:
            store.close()
        self.stores = []
        harness.remove_tree(self.dir)


def setup(ctx, inputs) -> State:
    state = State(ctx)
    try:
        state.tree_p = harness.build_tree(state, "p", inputs.p)
        state.tree_q = harness.build_tree(state, "q", inputs.q)
    except BaseException:
        state.close()
        raise
    return state


def drive(ctx, inputs, state, seconds) -> harness.Window:
    from repro.core.api import CPQRequest, k_closest_pairs

    tally = harness.Tally()
    calls0, elements0 = harness.kernel_totals()
    i = 0
    started = time.perf_counter()
    deadline = started + seconds
    # Whole cycles only, so every window weighs each request type alike.
    while i % len(inputs.cycle) or time.perf_counter() < deadline:
        algorithm, k = inputs.cycle[i % len(inputs.cycle)]
        request = CPQRequest(k=k, algorithm=algorithm,
                             buffer_pages=BUFFER_PAGES)
        t0 = time.perf_counter()
        with harness.request_scope(ctx, f"q{i}"):
            result = k_closest_pairs(state.tree_p, state.tree_q,
                                     request=request)
        latency_ms = (time.perf_counter() - t0) * 1000.0
        pairs = list(result.pairs)
        if ctx.inject_wrong and i == 0:
            pairs[0] = type(pairs[0])(pairs[0].distance * 1.5, pairs[0].p,
                                      pairs[0].q)
        problem = harness.check_pairs(pairs, inputs.expected[:k],
                                      inputs.p_set, inputs.q_set)
        first = state.disk_accesses.setdefault(
            (algorithm, k), result.stats.disk_accesses)
        if not problem and result.stats.disk_accesses != first:
            problem = (f"{algorithm} K={k}: {result.stats.disk_accesses} "
                       f"disk accesses, first run made {first}")
        if problem:
            tally.fail("wrong", problem)
        else:
            tally.ok(latency_ms, result.stats)
        i += 1
    measured = time.perf_counter() - started
    calls1, elements1 = harness.kernel_totals()
    extras = layers.Extras(kernel_calls=calls1 - calls0,
                           kernel_elements=elements1 - elements0,
                           bulk_load_s=state.bulk_load_s)
    report = {
        "disk_accesses_by_request": {
            f"{a}/K={k}": v
            for (a, k), v in sorted(state.disk_accesses.items())},
        "disk_accesses_per_query": (
            sum(state.disk_accesses.values())
            / max(1, len(state.disk_accesses))),
    }
    return harness.Window(tally, measured, extras, report=report)

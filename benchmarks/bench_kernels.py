#!/usr/bin/env python
"""Node-expansion kernel microbenchmark: NumPy kernels vs. scalar oracle.

Times the pairwise kernels the CPQ engine runs per node pair -- the
fused node-pair kernel (MINMINDIST, MINMAXDIST and MAXMAXDIST in one
call, what SIM/STD/HEAP run), each of the three on its own (EXH runs
MINMINDIST alone) and the leaf x leaf point-distance matrix -- as the
NumPy batch kernels of :mod:`repro.geometry.vectorized` (the engine's
only path) against a per-pair loop over :mod:`repro.geometry.metrics`,
the scalar oracle the kernels are tested against.  The scalar column
is that oracle loop, not an engine path.

The workload is the paper's node shape: M = 21 entries per node
(1 KiB pages, d = 2), i.e. 441 entry pairs per kernel call, in the
layout R-tree nodes hand the engine (``(n, k)`` transposed views of
C-contiguous ``(k, n)`` arrays).  The ``stacked`` row is the call step
CP3 makes per run of leaf pairs: one batched point kernel over
``RUN`` pairs of ``LEAF``-point leaves (the STR-packed leaf size),
gathered from the leaves' coordinate arrays.  Besides timing, every
run asserts the kernels and the oracle agree *bitwise* (the contract
``tests/test_kernel_parity.py`` pins), and the stacked call agrees
bitwise with one per-pair call per leaf pair.

Exit status is the CI gate: nonzero when any kernel's speedup falls
below ``--min-speedup`` (default 1.0, i.e. "vectorised must not be
slower").  Results feed the ``KERNEL_NS_PER_PAIR`` calibration table
in :mod:`repro.analysis.cost_model`; re-run with ``--json`` after
kernel changes and update the constants from the printed ns/pair.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_kernels.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.geometry import metrics as scalar_metrics
from repro.geometry.mbr import MBR
from repro.geometry.minkowski import EUCLIDEAN
from repro.geometry.vectorized import (
    node_pair_bounds,
    pairwise_maxdist,
    pairwise_mindist,
    pairwise_minmaxdist,
    pairwise_point_distances,
)

#: The paper's node capacity (1 KiB pages, d = 2): each kernel call
#: covers an M x M pair matrix.
M = 21
#: The stacked row: RUN leaf pairs of LEAF points each.
RUN = 16
LEAF = 14


def _make_nodes(seed: int) -> Tuple[np.ndarray, ...]:
    """Two synthetic M-entry nodes: MBR arrays plus leaf points, each
    in the nodes' coordinate-major layout."""
    rng = np.random.default_rng(seed)
    lo_p = rng.random((M, 2))
    hi_p = lo_p + rng.random((M, 2)) * 0.05
    lo_q = rng.random((M, 2))
    hi_q = lo_q + rng.random((M, 2)) * 0.05
    pts_p = rng.random((M, 2))
    pts_q = rng.random((M, 2))
    return tuple(np.ascontiguousarray(array.T).T for array in
                 (lo_p, hi_p, lo_q, hi_q, pts_p, pts_q))


def _make_leaf_run(seed: int):
    """``RUN`` leaf pairs as per-leaf ``(2, LEAF)`` coordinate arrays."""
    rng = np.random.default_rng(seed)
    return ([np.ascontiguousarray(rng.random((2, LEAF))) for __ in range(RUN)],
            [np.ascontiguousarray(rng.random((2, LEAF))) for __ in range(RUN)])


def _stacked_points(columns_p, columns_q) -> np.ndarray:
    """One batched point-kernel call over a run, gather included."""
    block_p = np.concatenate(columns_p, axis=1).reshape(2, RUN, LEAF)
    block_q = np.concatenate(columns_q, axis=1).reshape(2, RUN, LEAF)
    return pairwise_point_distances(block_p.transpose(1, 2, 0),
                                    block_q.transpose(1, 2, 0), EUCLIDEAN)


def _scalar_rect_matrix(fn, mbrs_p, mbrs_q) -> np.ndarray:
    """Oracle matrix of one :mod:`repro.geometry.metrics` function."""
    return np.array(
        [[fn(a, b, EUCLIDEAN) for b in mbrs_q] for a in mbrs_p],
        dtype=np.float64,
    )


def _scalar_point_matrix(pts_p, pts_q) -> np.ndarray:
    """Oracle point-distance matrix, one pair at a time."""
    return np.array(
        [[EUCLIDEAN.distance(a, b) for b in pts_q] for a in pts_p],
        dtype=np.float64,
    )


def _best_seconds(fn: Callable[[], object], repeats: int,
                  iterations: int) -> float:
    """Best-of-``repeats`` mean seconds per call."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        for __ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def run(repeats: int, iterations: int, seed: int) -> Dict[str, dict]:
    """Time every kernel both ways; returns per-kernel numbers."""
    lo_p, hi_p, lo_q, hi_q, pts_p, pts_q = _make_nodes(seed)
    mbrs_p = [MBR(tuple(lo), tuple(hi)) for lo, hi in zip(lo_p, hi_p)]
    mbrs_q = [MBR(tuple(lo), tuple(hi)) for lo, hi in zip(lo_q, hi_q)]

    columns_p, columns_q = _make_leaf_run(seed + 1)
    stacked = _stacked_points(columns_p, columns_q)
    for i, (cols_p, cols_q) in enumerate(zip(columns_p, columns_q)):
        single = pairwise_point_distances(cols_p.T, cols_q.T, EUCLIDEAN)
        if stacked[i].tobytes() != single.tobytes():
            raise AssertionError(
                f"stacked point kernel differs from the per-pair call "
                f"at leaf pair {i}")

    kernels: Dict[str, Tuple[Callable, Callable]] = {
        "fused": (
            lambda: np.array([
                _scalar_rect_matrix(fn, mbrs_p, mbrs_q)
                for fn in (scalar_metrics.mindist, scalar_metrics.minmaxdist,
                           scalar_metrics.maxdist)
            ]),
            lambda: node_pair_bounds(lo_p, hi_p, lo_q, hi_q, EUCLIDEAN),
        ),
        "minmin": (
            lambda: _scalar_rect_matrix(scalar_metrics.mindist,
                                        mbrs_p, mbrs_q),
            lambda: pairwise_mindist(lo_p, hi_p, lo_q, hi_q, EUCLIDEAN),
        ),
        "minmax": (
            lambda: _scalar_rect_matrix(scalar_metrics.minmaxdist,
                                        mbrs_p, mbrs_q),
            lambda: pairwise_minmaxdist(lo_p, hi_p, lo_q, hi_q, EUCLIDEAN),
        ),
        "maxmax": (
            lambda: _scalar_rect_matrix(scalar_metrics.maxdist,
                                        mbrs_p, mbrs_q),
            lambda: pairwise_maxdist(lo_p, hi_p, lo_q, hi_q, EUCLIDEAN),
        ),
        "points": (
            lambda: _scalar_point_matrix(pts_p, pts_q),
            lambda: pairwise_point_distances(pts_p, pts_q, EUCLIDEAN),
        ),
        "stacked": (
            lambda: np.array([
                _scalar_point_matrix(cols_p.T, cols_q.T)
                for cols_p, cols_q in zip(columns_p, columns_q)
            ]),
            lambda: _stacked_points(columns_p, columns_q),
        ),
    }

    results: Dict[str, dict] = {}
    for name, (scalar_fn, vector_fn) in kernels.items():
        pairs = RUN * LEAF * LEAF if name == "stacked" else M * M
        scalar_out = scalar_fn()
        vector_out = vector_fn()
        if not np.array_equal(scalar_out, vector_out):
            raise AssertionError(
                f"kernel {name!r}: scalar and vectorised outputs differ "
                f"(max abs diff "
                f"{np.max(np.abs(scalar_out - vector_out)):.3e})"
            )
        scalar_s = _best_seconds(scalar_fn, repeats, iterations)
        vector_s = _best_seconds(vector_fn, repeats, iterations)
        results[name] = {
            "pairs_per_call": pairs,
            "scalar_ns_per_pair": scalar_s / pairs * 1e9,
            "vectorized_ns_per_pair": vector_s / pairs * 1e9,
            "speedup": scalar_s / vector_s,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scalar vs vectorised expansion-kernel benchmark "
                    "(M=21 node pairs, d=2)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (CI smoke mode)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail (exit 1) if any kernel's vectorised "
                             "speedup is below this (default: 1.0)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None,
                        help="also write the numbers as JSON here")
    args = parser.parse_args(argv)

    repeats, iterations = (3, 50) if args.quick else (7, 400)
    results = run(repeats, iterations, args.seed)

    print(f"expansion kernels, M={M} ({M * M} pairs/call; stacked: "
          f"{RUN} leaf pairs of {LEAF}x{LEAF}), d=2, euclidean; "
          f"best of {repeats} x {iterations} calls")
    print(f"{'kernel':<8} {'scalar ns/pair':>15} {'vector ns/pair':>15} "
          f"{'speedup':>9}")
    for name, row in results.items():
        print(f"{name:<8} {row['scalar_ns_per_pair']:>15.1f} "
              f"{row['vectorized_ns_per_pair']:>15.1f} "
              f"{row['speedup']:>8.1f}x")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"wrote {args.json}")

    worst = min(results.values(), key=lambda row: row["speedup"])
    if worst["speedup"] < args.min_speedup:
        print(f"FAIL: slowest kernel speedup {worst['speedup']:.2f}x "
              f"< required {args.min_speedup:g}x", file=sys.stderr)
        return 1
    print(f"OK: all kernels >= {args.min_speedup:g}x "
          f"(slowest {worst['speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

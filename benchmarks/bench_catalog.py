#!/usr/bin/env python
"""Benchmark of the catalog's index kinds and the planner's choice.

For each dataset shape (uniform, clustered, skewed) the catalog
registers all three index kinds (STR-packed, grid-packed, dynamic
R*-tree) and measures what the planner's ``plan_index`` dimension
trades off: build wall time, then K-CPQ query cost (disk accesses and
wall time at ``buffer_capacity=0``, where every node touch hits the
page file) through ``Catalog.open_dataset`` -- the exact reopen path
the service and shards use.

The printed table is Markdown (paste into ``docs/BENCHMARKS.md``);
``--json`` writes the numbers (default
``benchmarks/results/BENCH_catalog.json``).

Exit status is the CI gate: nonzero when the kind ``plan_index``
recommends for a dataset is more than ``--tolerance`` (relative)
worse in measured query disk accesses than the best **packed** kind
(STR or grid) for that dataset.  The planner does not have to win
every shape -- it must never recommend a packing that loses badly.
``dynamic`` is measured and reported for context but excluded from
the gate: the planner never recommends it (it suits datasets that
take live mutation, a workload property this static benchmark does
not model; its ~100x build cost would never amortise here).

Usage::

    PYTHONPATH=src python benchmarks/bench_catalog.py           # full
    PYTHONPATH=src python benchmarks/bench_catalog.py --quick   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time

from repro.catalog import Catalog
from repro.core.api import CPQRequest, k_closest_pairs

KINDS = ("str", "grid", "dynamic")


def _uniform(n: int, seed: int):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for __ in range(n)]


def _clustered(n: int, seed: int, centers: int = 5):
    rng = random.Random(seed)
    hubs = [(rng.random(), rng.random()) for __ in range(centers)]
    out = []
    for __ in range(n):
        cx, cy = hubs[rng.randrange(centers)]
        out.append((
            min(1.0, max(0.0, cx + rng.gauss(0.0, 0.02))),
            min(1.0, max(0.0, cy + rng.gauss(0.0, 0.02))),
        ))
    return out


def _skewed(n: int, seed: int):
    # Heavy corner concentration: x, y ~ U^4 piles most of the mass
    # near the origin -- the shape the grid's occupancy CV flags.
    rng = random.Random(seed)
    return [(rng.random() ** 4, rng.random() ** 4) for __ in range(n)]


DATASETS = (
    ("uniform", _uniform),
    ("clustered", _clustered),
    ("skewed", _skewed),
)


def bench_dataset(catalog: Catalog, name: str, points, probe_points,
                  k: int, repeats: int) -> dict:
    """Register all kinds for one dataset; measure build and query.

    The query probe is the catalog's realistic workload: a
    bichromatic K-CPQ between the dataset and a second set of the
    same shape (``parks`` against ``schools``), both indexed by the
    kind under measurement.
    """
    entry = catalog.register_dataset(
        name, points, kind="auto", extra_kinds=KINDS, overwrite=True,
    )
    probe_entry = catalog.register_dataset(
        f"{name}_q", probe_points, kind="auto", extra_kinds=KINDS,
        overwrite=True,
    )
    chosen = entry.default_kind
    decision = entry.indexes[chosen].build["decision"]
    rows = []
    for kind in KINDS:
        index = entry.indexes[kind]
        tree_p = catalog.open_dataset(name, kind)
        tree_q = catalog.open_dataset(f"{name}_q", kind)
        try:
            best_s = float("inf")
            accesses = None
            for __ in range(repeats):
                start = time.perf_counter()
                result = k_closest_pairs(
                    tree_p, tree_q,
                    request=CPQRequest(k=k, algorithm="heap"),
                )
                best_s = min(best_s, time.perf_counter() - start)
                accesses = result.stats.disk_accesses
        finally:
            tree_p.file.store.close()
            tree_q.file.store.close()
        rows.append({
            "kind": kind,
            "build_s": index.build["build_s"],
            "nodes": index.build["nodes"],
            "height": index.build["height"],
            "query_s": best_s,
            "disk_accesses": accesses,
        })
    packed = [row for row in rows if row["kind"] != "dynamic"]
    winner = min(packed, key=lambda row: row["disk_accesses"])
    return {
        "dataset": name,
        "n": len(points),
        "k": k,
        "planner_kind": chosen,
        "planner_reason": decision["reason"],
        "measured_winner": winner["kind"],
        "kinds": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="catalog index-kind build/query benchmark and "
                    "planner-choice gate",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller datasets (CI)")
    parser.add_argument("--n", type=int, default=None,
                        help="points per dataset (overrides --quick)")
    parser.add_argument("--k", type=int, default=10,
                        help="result cardinality of the probe K-CPQ")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="fail (exit 1) when the planner's kind "
                             "needs more than (1 + tolerance) times "
                             "the best packed kind's disk accesses")
    parser.add_argument("--json", default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            "results", "BENCH_catalog.json"),
                        help="write the numbers as JSON here "
                             "('' disables)")
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (800 if args.quick else 4000)
    repeats = 2 if args.quick else 3

    workdir = tempfile.mkdtemp(prefix="bench-catalog-")
    results = []
    try:
        catalog = Catalog(workdir)
        for index, (name, maker) in enumerate(DATASETS):
            results.append(bench_dataset(
                catalog, name, maker(n, seed=41 + index),
                maker(n, seed=141 + index),
                k=args.k, repeats=repeats,
            ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"catalog index kinds, n={n} per dataset, "
          f"K={args.k} heap probe (best of {repeats})\n")
    print("| dataset | kind | build | height | query | disk accesses |")
    print("|---|---|---|---|---|---|")
    for result in results:
        for row in result["kinds"]:
            marks = ""
            if row["kind"] == result["planner_kind"]:
                marks += " (planner)"
            if row["kind"] == result["measured_winner"]:
                marks += " (winner)"
            print(f"| {result['dataset']} | {row['kind']}{marks} "
                  f"| {row['build_s'] * 1e3:.1f} ms "
                  f"| {row['height']} "
                  f"| {row['query_s'] * 1e3:.1f} ms "
                  f"| {row['disk_accesses']} |")
    print()
    for result in results:
        print(f"# {result['dataset']}: planner chose "
              f"{result['planner_kind']} -- {result['planner_reason']}")

    failures = []
    for result in results:
        by_kind = {row["kind"]: row for row in result["kinds"]}
        chosen = by_kind[result["planner_kind"]]["disk_accesses"]
        best = by_kind[result["measured_winner"]]["disk_accesses"]
        if chosen > best * (1.0 + args.tolerance):
            failures.append(
                f"{result['dataset']}: planner kind "
                f"{result['planner_kind']} needs {chosen} accesses, "
                f"{result['measured_winner']} needs {best} "
                f"(tolerance {args.tolerance:.0%})"
            )
    gate = {
        "tolerance": args.tolerance,
        "failures": failures,
        "passed": not failures,
    }

    if args.json:
        os.makedirs(os.path.dirname(args.json), exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"n": n, "k": args.k, "datasets": results,
                       "gate": gate}, handle, indent=2)
            handle.write("\n")
        print(f"\n# wrote {args.json}")

    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("# gate: planner choice within tolerance of measured "
          "winner on every dataset")
    return 0


if __name__ == "__main__":
    sys.exit(main())

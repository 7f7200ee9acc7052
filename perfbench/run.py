"""The repository's benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kcpq_sequoia --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` measures one untraced window of ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` measures an untraced half and a
traced half and prints the per-layer metrics (the trace file lands in
``.perfbench/traces/``).  The last line of standard output is the
result object; a ``# report`` line before it carries the environment
stamp and the figures that are not metrics.  Exit status: 0 when every
answer was correct, 1 on a wrong answer, 2 on bad usage or a checkout
without the program, 3 when a child process outlived the teardown.

``--all`` runs every workload, untraced then traced, and prints one
table; ``perfbench/selftest.py`` runs them at tiny sizes.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import subprocess
import sys
import time

import harness
from harness import Terminated, stderr

WORKLOADS = ("kcpq_sequoia", "serve_http", "ingest_mixed")
SCALES = ("full", "tiny")


class Context:
    """Run-wide settings plus the stack every resource is closed on."""

    def __init__(self, root, workload, seed, seconds, trace, scale,
                 inject_wrong, stack):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = scale == "tiny"
        self.inject_wrong = inject_wrong
        self.stack = stack
        self.recorder = None


def _windows(ctx, module, inputs, state):
    """Untraced window, then (with ``--trace 1``) a traced one."""
    if not ctx.trace:
        return module.drive(ctx, inputs, state, ctx.seconds), None
    import tracing

    half = ctx.seconds / 2.0
    base = module.drive(ctx, inputs, state, half)
    ctx.recorder = tracing.Recorder()
    inst = tracing.install(ctx.recorder)
    ctx.recorder.active = True
    try:
        traced = module.drive(ctx, inputs, state, half)
    finally:
        ctx.recorder.active = False
        inst.restore()
    return base, traced


def run_workload(ctx) -> dict:
    import layers

    module = importlib.import_module(ctx.workload)
    if module.ONE_CPU:
        harness.pin_to_one_cpu()
    inputs = module.prepare(ctx)
    harness.reset_peak_rss()
    setups = []
    state = None
    for rep in range(1 if ctx.tiny else module.SETUP_REPS):
        if state is not None:
            state.close()
        started = time.perf_counter()
        state = module.setup(ctx, inputs)
        ctx.stack.callback(state.close)
        setups.append(time.perf_counter() - started)
    if hasattr(module, "check_setup"):
        module.check_setup(ctx, inputs, state)
    base, traced = _windows(ctx, module, inputs, state)
    rss = harness.peak_rss_mb(harness.shard_pids())
    windows = [w for w in (base, traced) if w is not None]
    wrong = sum(w.tally.failures.get("wrong", 0) for w in windows)
    attempted = sum(w.tally.attempted for w in windows)
    failed = sum(w.tally.failed for w in windows)
    if ctx.trace:
        values = layers.per_layer(
            ctx.recorder, traced.tally, traced.extras,
            base.qps, traced.qps, traced.edge_ms)
        units = layers.PER_LAYER
        trace_dir = os.path.join(ctx.root, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        ctx.recorder.write(
            os.path.join(trace_dir, f"{ctx.workload}-seed{ctx.seed}.json"),
            {"workload": ctx.workload, "seed": ctx.seed,
             "seconds": traced.seconds})
    else:
        values = harness.end_to_end(base.tally, base.seconds,
                                    harness.median(setups), rss)
        units = harness.E2E_UNITS
    report = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "env": harness.environment(ctx.root),
        "setup_s_each": setups,
        "window_s": [w.seconds for w in windows],
        "attempted": attempted,
        "failures": _merge(w.tally.failures for w in windows),
        "errors": _merge(w.tally.errors for w in windows),
        "error_rate": failed / max(1, attempted),
        **base.report,
    }
    return {
        "report": report,
        "result": {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def _merge(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out


def _run_all(args) -> int:
    """Every workload untraced then traced, as one table."""
    rows = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                stderr(proc.stderr)
                status = status or proc.returncode or 1
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                rows.append((workload, name, metric["value"],
                             metric["unit"]))
            rows.append((workload, "correct", result["correct"], ""))
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{workload:14s} {name:40s} {shown!s:>14s} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny sizes for the self-test")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one answer before it is checked "
                             "(self-test of the checker)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.all:
        parser.error("--workload or --all is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        stderr(f"no program to measure: {root}/src/repro is missing "
               "(run from the root of a checkout)")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.all:
        return _run_all(args)

    harness.install_signal_handlers()
    outcome = None
    code = 0
    try:
        with contextlib.ExitStack() as stack:
            ctx = Context(root, args.workload, args.seed, args.seconds,
                          args.trace, args.scale, args.inject_wrong, stack)
            outcome = run_workload(ctx)
    except Terminated as exc:
        stderr(f"interrupted by {exc}; torn down")
        code = 128 + 15
    finally:
        harness.stop_resource_tracker()
        problems = harness.check_no_children()
        if problems:
            harness.reap_children()
            for problem in problems:
                stderr("leftover process: " + problem)
            code = 3
        harness.remove_tree(os.path.join(root, ".perfbench", "tmp"))
    if code or outcome is None:
        return code or 1
    print("# report " + json.dumps(outcome["report"]), flush=True)
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

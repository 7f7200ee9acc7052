"""Quick self-test of the benchmark itself (about a minute).

Runs every workload (also ``ingest_mixed``, which ``BENCHMARK.json``
leaves out) at tiny sizes and checks that:

* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) named in ``BENCHMARK.json`` is emitted with its unit;
* a deliberately corrupted answer (``--inject-wrong``) is counted as a
  failure, marks the run incorrect and makes it exit nonzero;
* no child process outlives a run -- also when ``serve_http`` is sent
  SIGTERM while its shards are up;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits nonzero without printing a result.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

from run import WORKLOADS

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _session_pids(sid: int):
    """Processes, zombies included, in session ``sid`` (a run's family).

    Each run starts a session of its own, so anything still in it after
    the run has exited -- running, or ended but never waited for -- was
    left behind by the run.
    """
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(int(entry))
    return found


def _run(args, cwd=ROOT, timeout=180):
    proc = subprocess.Popen([sys.executable, RUN, *args], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    # Checked at once: a child that ends only after the run has exited
    # counts as left behind.
    left = _session_pids(proc.pid)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out,
                                       err), left


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_workload(name, spec, failures):
    base = ["--workload", name, "--scale", "tiny", "--seconds", "2",
            "--seed", "3"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc, left = _run(base + ["--trace", str(trace)])
        result = _result(proc)
        tag = f"{name} --trace {trace}"
        if proc.returncode != 0 or result is None:
            failures.append(f"{tag}: exit {proc.returncode}\n"
                            f"{proc.stderr[-1500:]}")
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"] or result["attempted"] < 1:
            failures.append(f"{tag}: correct={result['correct']} "
                            f"attempted={result['attempted']}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != want:
            failures.append(f"{tag}: metrics/units differ: missing "
                            f"{sorted(set(want) - set(got))}, extra "
                            f"{sorted(set(got) - set(want))}, units "
                            f"{[n for n in want if n in got and got[n] != want[n]]}")
        if left:
            failures.append(f"{tag}: processes left behind: {left}")
    proc, left = _run(base + ["--trace", "0", "--inject-wrong"])
    result = _result(proc)
    if (proc.returncode == 0 or result is None or result["correct"]
            or result["failed"] < 1):
        failures.append(f"{name} --inject-wrong: exit {proc.returncode}, "
                        f"result {result and {k: result[k] for k in ('correct', 'failed')}}")
    if left:
        failures.append(f"{name} --inject-wrong: processes left: {left}")


def check_sigterm(failures):
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "serve_http", "--scale", "tiny",
         "--seconds", "60", "--seed", "4"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        # Wait until the run has children (shards) besides itself.
        while (time.monotonic() < deadline
               and len(_session_pids(proc.pid)) < 3):
            time.sleep(0.2)
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    left = _session_pids(proc.pid)
    if proc.returncode == 0 or out.strip():
        failures.append(f"SIGTERM: exit {proc.returncode}, stdout "
                        f"{out.strip()[:200]!r}")
    if left:
        failures.append(f"SIGTERM: processes left behind: {left}")


def check_bare_directory(failures):
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, left = _run(["--workload", "kcpq_sequoia", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout.strip()[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = _spec()
    failures = []
    for workload in WORKLOADS:
        started = time.monotonic()
        check_workload(workload, spec, failures)
        print(f"{workload}: checked in {time.monotonic() - started:.1f} s",
              flush=True)
    check_sigterm(failures)
    print("SIGTERM teardown: checked", flush=True)
    check_bare_directory(failures)
    print("bare directory: checked", flush=True)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

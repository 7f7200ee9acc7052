"""Shared plumbing of the benchmark: lifetime, accounting and oracles.

Nothing here imports the program under test at module level, so
``run.py`` can refuse to start (exit 2) in a directory without
``src/repro`` before anything heavy is loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class Terminated(BaseException):
    """Raised in the main thread when SIGTERM or SIGINT arrives.

    A ``BaseException`` so no ``except Exception`` on the way up can
    swallow it: every ``finally`` between the signal and ``main`` runs,
    which is what tears the server, the shards and the temp files down.
    """


def install_signal_handlers() -> None:
    def handler(signum, frame):
        # Ignore repeats: a second signal must not interrupt the
        # teardown the first one started.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise Terminated(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)


def pin_to_one_cpu() -> int:
    """Run this process, and every thread it starts, on one CPU.

    Used by the in-process workloads.  On a two-vCPU virtual machine,
    threads of one interpreter spread over both vCPUs paid for handing
    the GIL across CPUs, which made per-query times swing between runs.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scratch_dir(root: str, prefix: str) -> str:
    """A fresh temp directory inside the checkout (removed by caller)."""
    base = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def build_tree(state, name: str, points, buffer_capacity: int = 0):
    """STR bulk-load ``points`` onto a fresh file-backed page store.

    The store is added to ``state.stores`` (closed by the workload's
    ``State.close``) and the load time to ``state.bulk_load_s``.
    """
    from repro.rtree.bulk import bulk_load
    from repro.storage.paged_file import PagedFile
    from repro.storage.store import FilePageStore

    store = FilePageStore(os.path.join(state.dir, name + ".pages"))
    state.stores.append(store)
    started = time.perf_counter()
    tree = bulk_load([tuple(p) for p in points],
                     file=PagedFile(store, buffer_capacity=buffer_capacity,
                                    page_size=store.page_size))
    store.flush()
    state.bulk_load_s += time.perf_counter() - started
    return tree


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _proc_field(pid: int, name: str) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(name + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def child_pids() -> List[int]:
    """Live (non-zombie) direct children of this process."""
    me = str(os.getpid())
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        if _proc_field(int(entry), "PPid") != me:
            continue
        state = _proc_field(int(entry), "State") or ""
        if not state.startswith("Z"):
            out.append(int(entry))
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(
                "utf-8", "replace")
    except OSError:
        return ""


def shard_pids() -> List[int]:
    """Children started by ``multiprocessing`` spawn (the shards)."""
    return [pid for pid in child_pids() if "spawn_main" in _cmdline(pid)]


def _wait_or_kill(pid: int, deadline: float) -> None:
    """Wait for child ``pid`` to end; SIGKILL it at ``deadline``."""
    while True:
        try:
            done, __ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() > deadline:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
            return
        time.sleep(0.02)


def reap_children(timeout_s: float = 5.0) -> List[int]:
    """Terminate and wait for every child still alive; returns their pids.

    The last line of defence for a teardown that was interrupted before
    it could close what it had started (a signal landing inside a
    constructor that had already spawned processes).
    """
    leftover = child_pids()
    for pid in leftover:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + timeout_s
    for pid in leftover:
        _wait_or_kill(pid, deadline)
    return leftover


def stop_resource_tracker(timeout_s: float = 5.0) -> None:
    """End ``multiprocessing``'s resource tracker and wait for it.

    Spawning the shards starts a tracker process, a child of this one,
    that on its own ends only after this process has exited (when it
    reads end-of-file on its pipe), so it would outlive the run.  The
    semaphores it tracks are released first, as ``multiprocessing``
    would do at exit: releasing one after the tracker is gone would
    start a new tracker.
    """
    import gc
    from multiprocessing import resource_tracker, util

    tracker = resource_tracker._resource_tracker
    if tracker._pid is None:
        return
    gc.collect()
    util._run_finalizers(0)
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    if pid is not None:
        _wait_or_kill(pid, time.monotonic() + timeout_s)


def check_no_children() -> List[str]:
    """Problems with leftover children, empty when the process is clean."""
    import multiprocessing

    problems = []
    active = multiprocessing.active_children()  # also joins finished ones
    if active:
        problems.append(
            "multiprocessing children still active: "
            + ", ".join(f"{p.name}({p.pid})" for p in active))
    others = [f"{pid} ({_cmdline(pid)[:80]})" for pid in child_pids()]
    if others:
        problems.append("child processes still running: "
                        + ", ".join(others))
    return problems


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident set.

    Called after the oracles are computed, so ``peak_rss_mb`` covers
    the program's set-up and windows rather than the benchmark's own
    reference computations.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb(extra_pids: Sequence[int] = ()) -> float:
    """Peak resident set (VmHWM) of this process plus ``extra_pids``."""
    total_kb = 0
    for pid in (os.getpid(), *extra_pids):
        value = _proc_field(pid, "VmHWM")
        if value:
            total_kb += int(value.split()[0])
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

#: Failure kinds an attempted operation can end in; every one of them
#: counts in ``failed`` and none of them counts as throughput.
FAILURE_KINDS = ("error", "unavailable", "rejected", "stale", "wrong",
                 "transport")

#: Failure kind of a service response status that is not ``ok``.
FAILURE_OF_STATUS = {
    "unavailable": "unavailable",
    "overloaded": "rejected",
    "rejected": "rejected",
}


def failure_of(response) -> str:
    return FAILURE_OF_STATUS.get(response.status, "error")


@dataclass
class Tally:
    """Outcome of every attempted query in one measurement window."""

    attempted: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    failures: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, int] = field(default_factory=dict)
    #: Sums of per-answer counters (only answers actually executed,
    #: never result-cache hits, contribute).
    executed: int = 0
    node_pairs: int = 0
    distance_computations: int = 0
    queue_inserts: int = 0
    disk_accesses: int = 0
    buffer_hits: int = 0
    cached: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock,
                                 repr=False)

    def ok(self, latency_ms: float, stats=None, cached: bool = False):
        with self.lock:
            self.attempted += 1
            self.latencies_ms.append(latency_ms)
            if cached:
                self.cached += 1
            elif stats is not None:
                self.executed += 1
                self.node_pairs += stats.node_pairs_visited
                self.distance_computations += stats.distance_computations
                self.queue_inserts += stats.queue_inserts
                self.disk_accesses += stats.disk_accesses
                self.buffer_hits += stats.buffer_hits

    def fail(self, kind: str, detail: str = "") -> None:
        assert kind in FAILURE_KINDS, kind
        with self.lock:
            self.attempted += 1
            self.failures[kind] = self.failures.get(kind, 0) + 1
            if detail:
                key = detail[:120]
                self.errors[key] = self.errors.get(key, 0) + 1

    def retract_ok(self, index: int, kind: str, detail: str) -> None:
        """Turn the ``index``-th success into a failure (late oracle)."""
        with self.lock:
            self.latencies_ms[index] = math.nan
            self.failures[kind] = self.failures.get(kind, 0) + 1
            key = detail[:120]
            self.errors[key] = self.errors.get(key, 0) + 1

    @property
    def correct(self) -> List[float]:
        return [v for v in self.latencies_ms if not math.isnan(v)]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return math.nan
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: The end-to-end metrics every workload reports, name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "correct_rate": "fraction",
    "peak_rss_mb": "MiB",
}


def end_to_end(tally: Tally, seconds: float, setup_s: float,
               rss_mb: float) -> Dict[str, float]:
    # With no correct answer every attempt missed any latency limit, so
    # the latency figures read the whole window.
    correct = tally.correct
    latencies = correct or [seconds * 1000.0]
    return {
        "setup_s": setup_s,
        "queries_per_s": len(correct) / seconds,
        "query_p50_ms": median(latencies),
        "query_p90_ms": percentile(latencies, 90.0),
        "correct_rate": len(correct) / max(1, tally.attempted),
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

REL_TOL = 1e-9


def candidate_distances(tree_points, query_points, k: int,
                        chunk: int = 8192):
    """The ``k`` smallest P x Q distances, via each P point's k nearest
    neighbours in Q (``scipy.spatial.cKDTree``).

    The K closest pairs overall are among the per-point K nearest
    neighbour lists, so the union of those lists, cut to its ``k``
    smallest, is the exact K-CPQ distance list.  Chunked so the
    oracle's memory stays small next to the program's.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    index = cKDTree(query_points)
    k_eff = min(k, len(query_points))
    best = np.empty(0)
    for start in range(0, len(tree_points), chunk):
        dist, __ = index.query(tree_points[start:start + chunk], k=k_eff)
        merged = np.concatenate([best, np.asarray(dist).ravel()])
        cut = min(k, merged.size)
        best = np.partition(merged, cut - 1)[:cut]
    return np.sort(best)


class PointSet:
    """Exact membership in a point set, answered by a ``cKDTree``.

    Holds no Python object per point, so the check adds little to the
    resident set that ``peak_rss_mb`` measures.
    """

    def __init__(self, points):
        from scipy.spatial import cKDTree

        self.index = cKDTree(points)

    def __contains__(self, point) -> bool:
        return self.index.query(point)[0] == 0.0


def check_pairs(pairs, expected, p_points=None, q_points=None) -> str:
    """Empty string when ``pairs`` matches the oracle distance list.

    Checks the count, each distance against the oracle's (relative
    tolerance :data:`REL_TOL`), each pair's distance against its own
    coordinates, and -- when point sets are given -- that both points
    exist in their inputs.
    """
    if len(pairs) != len(expected):
        return f"expected {len(expected)} pairs, got {len(pairs)}"
    for rank, (pair, want) in enumerate(zip(pairs, expected)):
        if not math.isclose(pair.distance, float(want), rel_tol=REL_TOL,
                            abs_tol=1e-15):
            return (f"pair {rank}: distance {pair.distance!r} != oracle "
                    f"{float(want)!r}")
        own = math.dist(pair.p, pair.q)
        if not math.isclose(pair.distance, own, rel_tol=REL_TOL,
                            abs_tol=1e-15):
            return f"pair {rank}: distance does not match its points"
        if p_points is not None and tuple(pair.p) not in p_points:
            return f"pair {rank}: p {pair.p} is not in P"
        if q_points is not None and tuple(pair.q) not in q_points:
            return f"pair {rank}: q {pair.q} is not in Q"
    return ""


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def environment(root: str) -> Dict[str, object]:
    """Python, NumPy, CPU count and the program version measured."""
    import numpy as np

    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # The ceiling keeps git from reading any repository above the
        # checkout when the checkout itself is not one.
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=5, env=env)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def stderr(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Window:
    """One measurement window: its tally, length and layer figures."""

    tally: Tally
    seconds: float
    extras: object = None
    #: Mean (round trip - service latency) per answer, networked only.
    edge_ms: Optional[float] = None
    #: Figures for the ``# report`` line that are not metrics.
    report: Dict[str, object] = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return len(self.tally.correct) / self.seconds


def request_scope(ctx, request_id: str):
    """Attribute the spans of one request when the recorder is on."""
    recorder = ctx.recorder
    if recorder is None or not recorder.active:
        return contextlib.nullcontext()
    return recorder.request(request_id)


def kernel_totals() -> tuple:
    """(calls, elements) summed over every kernel in ``KERNEL_STATS``."""
    from repro.geometry.vectorized import KERNEL_STATS

    snap = KERNEL_STATS.snapshot()
    return (sum(v["calls"] for v in snap.values()),
            sum(v["pairs"] for v in snap.values()))


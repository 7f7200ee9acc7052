"""Span recording around the program's public functions.

The traced run replaces selected public functions and methods of the
program with timing wrappers for the length of the traced window, then
puts the originals back.  Program source is never touched: a function
imported by name into other modules (``from repro.net.frames import
decode_frame``) is replaced in every ``repro`` module that holds it.

Each call made while the recorder is active becomes a span ``(id,
parent, name, start, end, request, thread)``.  Self time -- a span's
duration minus the time its child spans cover -- is accumulated per
span name as calls finish.  Spans are kept in memory up to a cap
(totals stay exact past it) and written out as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the trace file; totals keep counting past the cap.
MAX_SPANS = 200_000


class Recorder:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.active = False
        self.max_spans = max_spans
        #: name -> [calls, total_s, self_s, raised]
        self.totals: Dict[str, List[float]] = {}
        #: observation name -> [count, sum]
        self.values: Dict[str, List[float]] = {}
        self.spans: List[Tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- request attribution -------------------------------------------------

    @contextlib.contextmanager
    def request(self, request_id: str):
        """Attribute spans this thread records to ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    # -- recording -----------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            cell = self.values.setdefault(name, [0, 0.0])
            cell[0] += 1
            cell[1] += value

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[..., None]] = None) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            raised = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                recorder._finish(span_id, parent, name, start, end,
                                 duration - frame[0], raised,
                                 getattr(local, "request", None))
            if observe is not None:
                observe(recorder, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _finish(self, span_id, parent, name, start, end, self_s, raised,
                request) -> None:
        with self._lock:
            cell = self.totals.get(name)
            if cell is None:
                cell = self.totals[name] = [0, 0.0, 0.0, 0]
            cell[0] += 1
            cell[1] += end - start
            cell[2] += self_s
            if raised:
                cell[3] += 1
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id, parent, name, start, end,
                                   request, threading.get_ident()))
            else:
                self.dropped += 1

    # -- queries -------------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return int(sum(c[0] for n, c in self.totals.items()
                       if n.startswith(prefix)))

    def total_s(self, prefix: str) -> float:
        return sum(c[1] for n, c in self.totals.items()
                   if n.startswith(prefix))

    def self_s(self, prefix: str) -> float:
        return sum(c[2] for n, c in self.totals.items()
                   if n.startswith(prefix))

    def raised(self, prefix: str) -> int:
        return int(sum(c[3] for n, c in self.totals.items()
                       if n.startswith(prefix)))

    def value_sum(self, name: str) -> float:
        cell = self.values.get(name)
        return cell[1] if cell else 0.0

    def value_count(self, name: str) -> int:
        cell = self.values.get(name)
        return int(cell[0]) if cell else 0

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the kept spans, the per-name totals and ``header``."""
        out = dict(header)
        out["totals"] = {
            name: {"calls": int(c[0]), "total_s": c[1], "self_s": c[2],
                   "raised": int(c[3])}
            for name, c in sorted(self.totals.items())
        }
        out["spans_dropped"] = self.dropped
        out["span_fields"] = ["id", "parent", "name", "start", "end",
                              "request", "thread"]
        out["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(out, handle)


class Instrumentation:
    """Installs and removes the recorder's wrappers."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []

    def function(self, module: str, attr: str, span: str,
                 observe=None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.recorder.wrap(span, original, observe)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def method(self, module: str, cls: str, attr: str, span: str,
               observe=None) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(span, original, observe))

    def patch(self, owner, attr: str, replacement) -> None:
        """Install ``replacement`` (built from the original) on ``owner``."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# The wrapped surface, one entry per layer boundary
# ---------------------------------------------------------------------------

_KERNELS = ("pairwise_point_distances", "pairwise_mindist",
            "pairwise_maxdist", "pairwise_minmaxdist", "batch_mindist",
            "batch_mindist_argsort", "point_rect_mindist")

_WIRE_ENCODE = ("encode_request", "encode_response", "dumps_request",
                "dumps_response")
_WIRE_DECODE = ("decode_request", "decode_response", "loads_request",
                "loads_response")


def _request_bytes(recorder, result, *args, **kwargs):
    recorder.observe("net.request_bytes", len(result))


def _response_bytes(recorder, result, *args, **kwargs):
    # The edge sends ``json.dumps(encode_response(...))``; measure the
    # same body length from the envelope the wrapper just saw.
    recorder.observe("net.response_bytes",
                     len(json.dumps(result).encode("utf-8")))


def _frame_bytes(recorder, result, data, *args, **kwargs):
    recorder.observe("net.frame_bytes", len(data))


def _chunks(recorder, result, *args, **kwargs):
    net = result.stats.extra.get("net", {})
    recorder.observe("net.chunks", net.get("shards", 0))


def install(recorder: Recorder) -> Instrumentation:
    """Wrap every layer boundary the per-layer metrics read."""
    inst = Instrumentation(recorder)
    # core: the traversal entry point and the shard partitioner.
    inst.function("repro.core.api", "k_closest_pairs", "core.traverse")
    inst.function("repro.core.parallel", "partition_tasks",
                  "core.partition")
    # geometry: every public pairwise kernel.
    for name in _KERNELS:
        inst.function("repro.geometry.vectorized", name,
                      "geometry." + name)
    # storage: buffered page reads, page decoding, the log.
    inst.method("repro.storage.paged_file", "PagedFile", "read_page",
                "storage.read_page")
    inst.method("repro.storage.serializer", "NodeSerializer",
                "deserialize_arrays", "storage.deserialize")
    inst.method("repro.storage.serializer", "NodeSerializer",
                "deserialize", "storage.deserialize")
    inst.method("repro.storage.wal", "WriteAheadLog", "sync",
                "storage.wal_sync")
    # rtree: batched inserts and WAL checkpoints.
    inst.method("repro.rtree.tree", "RTree", "insert_many",
                "rtree.insert_many")
    inst.method("repro.rtree.tree", "RTree", "checkpoint_wal",
                "rtree.checkpoint_wal")
    # service: planning.
    inst.method("repro.service.planner", "Planner", "plan",
                "service.plan")
    # query: CPQL parsing.
    inst.function("repro.query.cpql", "parse", "query.cpql_parse")
    # net: client round trips, wire codec, scatter-gather, frames.
    inst.method("repro.net.client", "NetClient", "query",
                "net.roundtrip.query")
    inst.method("repro.net.client", "NetClient", "sql",
                "net.roundtrip.sql")
    for name in _WIRE_ENCODE:
        observe = None
        if name == "dumps_request":
            observe = _request_bytes
        elif name == "encode_response":
            observe = _response_bytes
        inst.function("repro.net.wire", name, "net.wire_encode." + name,
                      observe)
    for name in _WIRE_DECODE:
        inst.function("repro.net.wire", name, "net.wire_decode." + name)
    inst.method("repro.net.shard", "ShardManager", "execute",
                "net.scatter_gather", _chunks)
    inst.function("repro.net.frames", "decode_frame", "net.frame_decode",
                  _frame_bytes)
    _queue_wait(inst)
    return inst


def _queue_wait(inst: Instrumentation) -> None:
    """Observe ``service.queue_wait`` from admission to worker pickup.

    Every admitted query is a ``PendingQuery`` stamped ``admitted_at``;
    a pool worker reports the queue depth the moment it takes one off
    the FIFO queue.  Pairing pickups with the oldest unresolved pending
    query gives each query's wait without touching the worker loop.
    """
    from collections import deque

    from repro.service import engine
    from repro.service.metrics import ServiceMetrics

    recorder = inst.recorder
    waiting: deque = deque()
    lock = threading.Lock()

    def init_factory(original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if recorder.active:
                with lock:
                    waiting.append(self)
        return __init__

    def depth_factory(original):
        def set_queue_depth(self, depth):
            original(self, depth)
            if not recorder.active or not threading.current_thread(
                    ).name.startswith("repro-service-worker"):
                return
            now = time.monotonic()
            with lock:
                while waiting and waiting[0].done():
                    waiting.popleft()  # resolved at admission
                pending = waiting.popleft() if waiting else None
            if pending is not None:
                recorder.observe("service.queue_wait_s",
                                 now - pending.admitted_at)
        return set_queue_depth

    inst.patch(engine.PendingQuery, "__init__", init_factory)
    inst.patch(ServiceMetrics, "set_queue_depth", depth_factory)

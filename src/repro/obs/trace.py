"""Hierarchical spans and the tracer that records them.

The paper's evaluation is an I/O-cost story (Figures 4-10 plot disk
accesses), and the service layer added latency on top of it; this
module makes both attributable.  A :class:`Tracer` records a tree of
:class:`Span` objects per query -- service request, planner decision,
core traversal, heap ops, buffer/page I/O -- each carrying wall time
plus whatever counters the instrumented layer adds (page-read/hit
deltas snapshotted from :class:`~repro.storage.stats.IOStats`, node
pairs visited, MINMINDIST prunes, heap high-water marks).

Two design rules keep the instrumentation honest:

* **No-op by default.**  Every instrumented call site receives
  :data:`NULL_TRACER` unless a caller opts in.  Hot paths guard their
  bookkeeping behind ``tracer.enabled`` (a plain attribute read), so
  an untraced query executes the same arithmetic as before the
  instrumentation existed.
* **Thread-correct attribution.**  The active-span stack is
  thread-local, so concurrent service workers trace their own queries
  without cross-talk, and the buffer observer installed by
  :meth:`Tracer.watch_buffer` routes each page read to the I/O
  collector of the thread that issued it -- exact per-query I/O even
  when queries overlap on shared trees (which the aggregate
  :class:`~repro.storage.stats.IOStats` deltas cannot distinguish).

See ``docs/OBSERVABILITY.md`` for the span schema and worked examples.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional


class Span:
    """One node of a trace tree: a named period with counters.

    Attributes
    ----------
    name:
        Span kind, e.g. ``"request"``, ``"plan"``, ``"traverse"``,
        ``"heap"``, ``"io.p"``.
    span_id / parent_id:
        Tracer-unique integers; ``parent_id`` is ``None`` for roots.
    attrs:
        Free-form counters and annotations.  Counters added via
        :meth:`add` accumulate; :meth:`annotate` overwrites.
    timed:
        The keys of ``attrs`` whose values depend on thread timing,
        set by :meth:`annotate_timed`; renderings that promise
        deterministic output omit them along with the durations.
    offset_ms / duration_ms:
        Start offset relative to the root span, and wall time from
        start to finish, both in milliseconds.
    """

    __slots__ = ("name", "span_id", "parent_id", "attrs", "timed",
                 "children", "offset_ms", "duration_ms", "_t0")

    def __init__(
        self,
        name: str,
        span_id: int = 0,
        parent_id: Optional[int] = None,
        attrs: Optional[dict] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: dict = dict(attrs) if attrs else {}
        self.timed: frozenset = frozenset()
        self.children: List["Span"] = []
        self.offset_ms: float = 0.0
        self.duration_ms: float = 0.0
        self._t0: float = 0.0

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate ``amount`` into the counter ``key``."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def annotate(self, **attrs) -> None:
        """Set (overwrite) attributes on the span."""
        self.attrs.update(attrs)

    def annotate_timed(self, **attrs) -> None:
        """:meth:`annotate` values that depend on thread timing, such
        as a parallel worker's share of the work."""
        self.attrs.update(attrs)
        self.timed = self.timed | frozenset(attrs)

    # -- reading -----------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Yield the span and its descendants, depth-first, in
        recording order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator["Span"]:
        """Yield the childless descendants (the attribution leaves)."""
        for span in self.walk():
            if not span.children:
                yield span

    def total(self, key: str) -> float:
        """Sum a counter over the span and its whole subtree."""
        return sum(span.attrs.get(key, 0) for span in self.walk())

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with the given name, else None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every descendant (and self) with the given name, in order."""
        return [span for span in self.walk() if span.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"attrs={self.attrs}, children={len(self.children)})")


class _IOCollector:
    """Per-thread, per-tree page-read tally fed by the buffer observer.

    Counts are *raw* (one increment per observed read) and therefore
    exact for the observing thread even when other threads hammer the
    same buffer; tests cross-check them against the aggregate
    :class:`~repro.storage.stats.IOStats` deltas on serial workloads.
    """

    __slots__ = ("disk_reads", "buffer_hits", "pages")

    def __init__(self):
        self.disk_reads = 0
        self.buffer_hits = 0
        self.pages: set = set()

    def record(self, page_id: int, hit: bool) -> None:
        if hit:
            self.buffer_hits += 1
        else:
            self.disk_reads += 1
        self.pages.add(page_id)

    @property
    def reads(self) -> int:
        """Total observed logical reads (hits + misses)."""
        return self.disk_reads + self.buffer_hits

    @property
    def distinct_pages(self) -> int:
        """Number of distinct pages touched (re-read detector)."""
        return len(self.pages)


class Tracer:
    """Records span trees; thread-safe, one instance per service/CLI run.

    Parameters
    ----------
    max_traces:
        Retain at most this many finished root spans (oldest dropped
        first), bounding memory on long ``serve`` sessions.

    Usage::

        tracer = Tracer()
        with tracer.span("request", kind="cpq") as root:
            with tracer.span("plan") as plan:
                plan.annotate(algorithm="heap")
        finished = tracer.traces()[-1]
    """

    enabled: bool = True

    def __init__(self, max_traces: int = 4096):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = max_traces
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._traces: List[Span] = []
        #: id(buffer) -> [observer, refcount] for watched buffer pools.
        self._watched: Dict[int, list] = {}

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start(self, name: str, **attrs) -> Span:
        """Open a span as a child of the thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            attrs=attrs,
        )
        span._t0 = time.perf_counter()
        if parent is not None:
            parent.children.append(span)
            span.offset_ms = (span._t0 - stack[0]._t0) * 1000.0
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close a span; a closed root is appended to :meth:`traces`."""
        span.duration_ms = (time.perf_counter() - span._t0) * 1000.0
        stack = self._stack()
        while stack and stack[-1] is not span:
            stack.pop()  # tolerate mis-nested manual use
        if stack:
            stack.pop()
        if span.parent_id is None:
            with self._lock:
                self._traces.append(span)
                overflow = len(self._traces) - self.max_traces
                if overflow > 0:
                    del self._traces[:overflow]

    @contextmanager
    def span(self, name: str, **attrs):
        """Context manager form of :meth:`start` / :meth:`finish`."""
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    # -- counters on the current span -------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a counter on the calling thread's current span."""
        span = self.current()
        if span is not None:
            span.add(key, amount)

    def annotate(self, **attrs) -> None:
        """Set attributes on the calling thread's current span."""
        span = self.current()
        if span is not None:
            span.annotate(**attrs)

    # -- finished traces ---------------------------------------------------

    def traces(self) -> List[Span]:
        """Snapshot of the finished root spans (oldest first)."""
        with self._lock:
            return list(self._traces)

    def pop_traces(self) -> List[Span]:
        """Drain and return the finished root spans."""
        with self._lock:
            drained, self._traces = self._traces, []
            return drained

    # -- buffer/page I/O attribution ---------------------------------------

    def watch_buffer(self, buffer, label: str) -> None:
        """Install this tracer's page-read observer on a buffer pool.

        Every subsequent :meth:`LRUBuffer.read` reports ``(page_id,
        hit)`` to the *calling thread's* active I/O collector for
        ``label`` (see :meth:`collect_io`); threads with no active
        collector pay one dictionary probe and move on.  Watches are
        reference-counted per buffer: concurrent traversals sharing a
        tree each watch/unwatch, and the observer comes off only when
        the last one releases it.  Installing a second tracer on the
        same buffer replaces the first.
        """
        def observe(page_id: int, hit: bool,
                    _tracer=self, _label=label) -> None:
            collectors = getattr(_tracer._local, "collectors", None)
            if collectors:
                collector = collectors.get(_label)
                if collector is not None:
                    collector.record(page_id, hit)

        with self._lock:
            entry = self._watched.get(id(buffer))
            if entry is None:
                self._watched[id(buffer)] = [observe, 1]
            else:
                entry[0] = observe
                entry[1] += 1
        buffer.on_read = observe

    def unwatch_buffer(self, buffer) -> None:
        """Release one :meth:`watch_buffer` registration on a buffer.

        The observer is removed when the final registration drops (and
        only if this tracer's observer is still the installed one, so
        an unrelated replacement survives).  Unbalanced calls -- e.g.
        against a buffer another tracer watched -- are no-ops.
        """
        with self._lock:
            entry = self._watched.get(id(buffer))
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            observer = entry[0]
            del self._watched[id(buffer)]
        if buffer.on_read is observer:
            buffer.on_read = None

    @contextmanager
    def collect_io(self, labels: Iterable[str]):
        """Activate per-label I/O collectors for the calling thread.

        Yields ``{label: _IOCollector}``.  Reads observed on watched
        buffers during the ``with`` block accumulate into the matching
        collector; nesting restores the outer collectors on exit.
        """
        collectors: Dict[str, _IOCollector] = {
            label: _IOCollector() for label in labels
        }
        previous = getattr(self._local, "collectors", None)
        self._local.collectors = collectors
        try:
            yield collectors
        finally:
            self._local.collectors = previous


class _NullContext:
    """A reusable context manager yielding the null span."""

    __slots__ = ()

    def __enter__(self) -> "Span":
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """The do-nothing tracer installed at every call site by default.

    ``enabled`` is False, which is what hot paths test before doing any
    tracing work; the methods exist so that cold paths may call them
    unconditionally.  All spans handed out are the shared
    :data:`NULL_SPAN`, whose mutators discard their input.
    """

    enabled: bool = False

    def span(self, name: str, **attrs) -> _NullContext:
        return _NULL_CONTEXT

    def start(self, name: str, **attrs) -> Span:
        return NULL_SPAN

    def finish(self, span: Span) -> None:
        pass

    def current(self) -> Optional[Span]:
        return None

    def add(self, key: str, amount: float = 1) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def traces(self) -> List[Span]:
        return []

    def pop_traces(self) -> List[Span]:
        return []

    def watch_buffer(self, buffer, label: str) -> None:
        pass

    def unwatch_buffer(self, buffer) -> None:
        pass

    def collect_io(self, labels: Iterable[str]) -> _NullContext:
        return _NULL_CONTEXT


class _NullSpan(Span):
    """Shared inert span; mutators drop their input."""

    __slots__ = ()

    def add(self, key: str, amount: float = 1) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def annotate_timed(self, **attrs) -> None:
        pass


#: The span returned by :class:`NullTracer`; safe to call, never records.
NULL_SPAN = _NullSpan("null")
_NULL_CONTEXT = _NullContext()

#: Module-level no-op tracer; the default at every instrumented site.
NULL_TRACER = NullTracer()

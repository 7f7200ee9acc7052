"""Multi-process spatial shards with a self-healing scatter-gather.

:class:`ShardManager` extends the partitioned executor of
:mod:`repro.core.parallel` across process boundaries and makes it
*persistent*: N worker processes are spawned once, each reopening both
trees of a pair through its own read-only
:class:`~repro.storage.store.FilePageStore` handles (private file
descriptors, private buffer pools -- no shared seek state, no GIL
contention with the edge).  Every K-CPQ is then answered by
scatter-gather:

1. **Partition** (coordinator): expand the root pair
   ``partition_depth`` levels with the same candidate generation and
   conservative pruning the serial algorithms use
   (:func:`~repro.core.parallel.partition_tasks`), producing a
   MINMINDIST-ascending frontier of disjoint subtree pairs, plus the
   partition-time metric bound.
2. **Scatter**: the sorted frontier is dealt round-robin (``i::n``,
   staying sorted) into per-shard *chunks*; each chunk is dispatched
   as an independent, idempotent attempt -- ``(page_p, page_q,
   minmin)`` triples plus the partition-time bound, which seeds each
   shard's local bound.
3. **Gather**: each shard runs the unmodified serial algorithm per
   task through :func:`~repro.core.parallel.run_chunk` (stopping early
   once the chunk's ascending MINMINDIST exceeds its local bound) and
   ships back its K-heap pairs and counters in a CRC frame
   (:mod:`repro.net.frames`).
4. **Merge**: the coordinator re-offers every returned pair to its
   canonical K-heap (:mod:`repro.core.kheap`), whose total-order
   tie-breaking makes the merged result a pure function of the offered
   set -- byte-identical to the serial engine, tie order included, at
   any shard count.

Self-healing (the wire may lie; the answer may not)
---------------------------------------------------
Chunks are *idempotent*: shards execute them read-only against a
pinned snapshot generation, every dispatch carries a fresh attempt id,
and the coordinator accepts exactly **one** successful payload per
chunk -- duplicate replies from retried or hedged attempts are counted
and dropped, never merged twice.  On top of that contract:

* **Per-attempt timeouts** are carved from the remaining gather
  budget (``shard_timeout_s``, further capped by the request deadline
  when one is set), so a silently lost frame costs one attempt, not
  the whole budget.
* **Retries** re-dispatch a failed chunk to another shard under an
  exponential-backoff-with-jitter
  :data:`~repro.net.retry.SHARD_RETRY_POLICY`.
* **Hedging** duplicates a chunk to a sibling shard once its only
  live attempt has been outstanding longer than a trailing latency
  quantile (:class:`~repro.net.retry.HedgePolicy`); first reply wins.
* **Frame verification** turns truncated or corrupt replies into
  typed, retryable failures (:class:`~repro.net.frames.FrameError`).
* A **supervisor** thread probes shard health, respawns dead
  processes with capped backoff, and hot-reloads shards onto a newer
  pinned snapshot generation without a restart (:meth:`ShardManager.
  reload`).

Failure semantics (the PR 5 resilience ring, per shard)
-------------------------------------------------------
Each shard has its own :class:`~repro.service.breaker.CircuitBreaker`:
a reply carrying an error, a damaged frame, a dead process, or an
attempt timeout records a failure; an open breaker takes the shard out
of the scatter set until its reset timeout elapses.  What happens to
chunks that exhaust their retry budget depends on ``on_failure``:

* ``"recover"`` (default): the coordinator executes the failed chunks
  itself, so the answer stays exact; the response is annotated
  (``stats.extra["net"]["recovered_chunks"]``) but not partial.
* ``"partial"``: the merged result covers only the delivered chunks
  and is clearly flagged (``stats.extra["net"]["partial"]`` -- the
  service lifts this into ``QueryResponse.partial``, and the wire
  format carries it to clients).

Injected wire faults for testing live in :mod:`repro.net.faults`; the
``transport`` constructor seam accepts any
:class:`~repro.net.faults.ShardTransport`.  See ``docs/NETWORK.md``
for the full lifecycle.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.catalog.core import TreeSpec, tree_spec  # noqa: F401 (re-export)
from repro.core.engine import CPQContext, traced_traversal
from repro.core.parallel import PartitionTask, partition_tasks, run_chunk
from repro.core.result import CPQResult
from repro.net.frames import FrameError, decode_frame, encode_frame
from repro.net.retry import SHARD_RETRY_POLICY, HedgePolicy, RetryPolicy
from repro.rtree.tree import RTree
from repro.service.breaker import CircuitBreaker

#: How shard loss affects in-flight queries.
FAILURE_MODES = ("recover", "partial")

#: Seconds the collector sleeps between mailbox polls while a gather
#: is outstanding (also the cancel-check cadence of the coordinator).
_POLL_S = 0.02

#: Consecutive unanswered supervisor probes before a shard is declared
#: hung and force-respawned.
_PROBE_MISS_LIMIT = 3

#: A respawned process that dies again within this window doubles its
#: respawn backoff (crash-looping); a longer life resets it.
_QUICK_DEATH_S = 5.0

#: Upper bound on the supervisor's capped respawn backoff.
_MAX_RESPAWN_BACKOFF_S = 5.0


# ---------------------------------------------------------------------------
# Shard worker process
# ---------------------------------------------------------------------------

def _worker_query(tree_p: RTree, tree_q: RTree, request, tasks,
                  initial_bound) -> dict:
    """Execute one chunk of partition tasks; returns the reply payload."""
    before_p = tree_p.stats.snapshot()
    before_q = tree_q.stats.snapshot()
    try:
        ctx = CPQContext.for_request(tree_p, tree_q, request)
        ctx.bound = initial_bound
        if request.deadline_ms is not None:
            from repro.core.api import _deadline_probe

            ctx.cancel_check = _deadline_probe(request.deadline_ms)
        completed = run_chunk(ctx, request, tasks)
        io = tree_p.stats.since(before_p)
        io.add(tree_q.stats.since(before_q))
        return {
            "ok": True,
            "pairs": ctx.kheap.sorted_pairs(),
            "tasks_completed": completed,
            **ctx.stats.traversal_counters(),
            "disk_reads": io.disk_reads,
            "buffer_hits": io.buffer_hits,
        }
    except BaseException as exc:  # noqa: BLE001 -- report, don't die
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            # Deadline expiry says nothing about shard health; the
            # coordinator returns the probe slot instead of
            # recording a breaker failure.
            "deadline": type(exc).__name__ == "DeadlineExceeded",
        }


def shard_worker_main(shard_id: int, spec_p: TreeSpec, spec_q: TreeSpec,
                      inbox, outbox) -> None:
    """Entry point of one shard process.

    Opens both trees through private read-only handles, then serves
    messages from ``inbox`` until the ``None`` sentinel:

    * ``("query", req_id, chunk_id, attempt_id, request, tasks,
      bound)`` -- run one chunk; reply ``("reply", req_id, chunk_id,
      attempt_id, shard_id, frame)`` where ``frame`` CRC-wraps the
      K-heap pairs and counters (or the error that stopped it).
    * ``("probe", ctl_id)`` -- supervisor liveness check; replies
      ``("ctl", ctl_id, shard_id, frame)`` with the pinned
      generations.
    * ``("reload", ctl_id, spec_p, spec_q)`` -- hot-reload: reopen
      both trees at the new specs *without restarting the process*
      (warm interpreter, fresh buffer pools at the new generation),
      then ack over ``ctl``.

    The buffer pools stay warm across jobs (I/O is reported as
    per-job deltas).  Module-level so it pickles by reference under
    the spawn start method.
    """
    import os

    tree_p = spec_p.open()
    tree_q = spec_q.open()
    while True:
        job = inbox.get()
        if job is None:
            return
        kind = job[0]
        if kind == "probe":
            __, ctl_id = job
            payload = {
                "ok": True,
                "pid": os.getpid(),
                "generation_p": tree_p.generation,
                "generation_q": tree_q.generation,
            }
            outbox.put(("ctl", ctl_id, shard_id, encode_frame(payload)))
            continue
        if kind == "reload":
            __, ctl_id, new_p, new_q = job
            try:
                fresh_p = new_p.open()
                fresh_q = new_q.open()
            except BaseException as exc:  # noqa: BLE001 -- report
                payload = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            else:
                for old in (tree_p, tree_q):
                    try:
                        old.file.store.close()
                    except (AttributeError, OSError):
                        pass
                tree_p, tree_q = fresh_p, fresh_q
                payload = {
                    "ok": True,
                    "pid": os.getpid(),
                    "generation_p": tree_p.generation,
                    "generation_q": tree_q.generation,
                }
            outbox.put(("ctl", ctl_id, shard_id, encode_frame(payload)))
            continue
        # kind == "query"
        __, req_id, chunk_id, attempt_id, request, tasks, bound = job
        payload = _worker_query(tree_p, tree_q, request, tasks, bound)
        outbox.put(("reply", req_id, chunk_id, attempt_id, shard_id,
                    encode_frame(payload)))


# ---------------------------------------------------------------------------
# Coordinator-side state
# ---------------------------------------------------------------------------

class _Shard:
    """Coordinator-side state of one shard process."""

    __slots__ = ("shard_id", "process", "inbox", "breaker", "jobs",
                 "failures", "respawns", "spawned_at", "backoff_s",
                 "next_spawn_at", "probe_ctl", "probe_sent_at",
                 "probe_misses", "generations")

    def __init__(self, shard_id: int, breaker: CircuitBreaker):
        self.shard_id = shard_id
        self.process = None
        self.inbox = None
        self.breaker = breaker
        self.jobs = 0
        self.failures = 0
        self.respawns = 0
        self.spawned_at = 0.0
        self.backoff_s = 0.0
        self.next_spawn_at = 0.0
        self.probe_ctl: Optional[int] = None
        self.probe_sent_at = 0.0
        self.probe_misses = 0
        #: Last (generation_p, generation_q) a probe or reload ack
        #: reported; None until the first answer.
        self.generations: Optional[Tuple[int, int]] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _Attempt:
    """One dispatch of one chunk to one shard."""

    __slots__ = ("attempt_id", "shard", "started", "timeout_s", "hedge",
                 "done")

    def __init__(self, attempt_id: int, shard: _Shard, started: float,
                 timeout_s: float, hedge: bool):
        self.attempt_id = attempt_id
        self.shard = shard
        self.started = started
        self.timeout_s = timeout_s
        self.hedge = hedge
        self.done = False


class _Chunk:
    """Per-chunk retry state of one in-flight scatter-gather."""

    __slots__ = ("chunk_id", "tasks", "payload", "attempts", "failures",
                 "hedges", "next_retry_at", "tried", "won_by_hedge")

    def __init__(self, chunk_id: int, tasks: List[Tuple[int, int, float]]):
        self.chunk_id = chunk_id
        self.tasks = tasks
        self.payload: Optional[dict] = None
        self.attempts: List[_Attempt] = []
        self.failures = 0
        self.hedges = 0
        self.next_retry_at = 0.0
        self.tried: Set[int] = set()
        self.won_by_hedge = False

    def live_attempts(self) -> List[_Attempt]:
        return [a for a in self.attempts if not a.done]


class _Gather:
    """One in-flight scatter-gather: replies keyed by attempt id."""

    __slots__ = ("replies", "event")

    def __init__(self):
        self.replies: Dict[int, Tuple[int, object]] = {}
        self.event = threading.Event()


class _CtlWait:
    """One awaited control acknowledgement (probe / reload)."""

    __slots__ = ("event", "frame", "shard_id")

    def __init__(self):
        self.event = threading.Event()
        self.frame: Optional[object] = None
        self.shard_id: Optional[int] = None


class ShardManager:
    """Owns N shard processes over one file-backed tree pair.

    Parameters
    ----------
    spec_p, spec_q:
        :class:`TreeSpec` descriptions of the two trees (see
        :func:`tree_spec`); the manager opens its own coordinator
        handles for partitioning and shard processes reopen them
        read-only.
    shards:
        Worker process count (>= 1).
    pair:
        Name under which the coordinator trees are meant to be
        registered with a :class:`~repro.service.QueryService`; the
        :meth:`service_executor` declines requests for other pairs.
    on_failure:
        ``"recover"`` (exact answers, coordinator re-executes
        exhausted chunks) or ``"partial"`` (flagged partial answers
        from the delivered chunks).
    shard_timeout_s:
        Total gather budget per query; chunks still undelivered when
        it lapses fall to ``on_failure``.
    attempt_timeout_s:
        Per-attempt timeout, additionally capped by the remaining
        gather budget.  Defaults to ``shard_timeout_s /
        retry_policy.max_attempts`` -- the budget carved evenly across
        the retry ladder.
    retry_policy / hedge_policy:
        See :mod:`repro.net.retry`.  ``HedgePolicy(enabled=False)``
        disables hedging.
    transport:
        The coordinator<->shard wire; defaults to the perfect
        :class:`~repro.net.faults.ShardTransport`.  Chaos testing
        passes a :class:`~repro.net.faults.FaultyShardTransport`.
    supervise / probe_interval_s:
        Run the supervisor thread (periodic health probes,
        capped-backoff respawn of dead or hung shards).
    breaker_factory:
        Builds each shard's :class:`~repro.service.breaker.
        CircuitBreaker`; defaults to ``CircuitBreaker()``.
    coordinator_buffer:
        Buffer capacity of the coordinator's own tree handles
        (partitioning working set -- roots plus one or two levels).
    metrics_sink:
        Optional callable ``(event, n)`` receiving every lifetime
        counter increment (retries, hedges, hedge_wins, respawns,
        reloads, frame_errors, ...); ``repro-cpq serve-net`` wires it
        to :meth:`~repro.service.metrics.ServiceMetrics.
        record_net_event` so the counters surface in ``/stats``.
    """

    def __init__(
        self,
        spec_p: TreeSpec,
        spec_q: TreeSpec,
        shards: int = 2,
        *,
        pair: str = "default",
        on_failure: str = "recover",
        shard_timeout_s: float = 30.0,
        attempt_timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        hedge_policy: Optional[HedgePolicy] = None,
        transport=None,
        supervise: bool = True,
        probe_interval_s: float = 2.0,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        coordinator_buffer: int = 256,
        mp_start_method: str = "spawn",
        metrics_sink: Optional[Callable[[str, int], None]] = None,
        seed: int = 0,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if on_failure not in FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {FAILURE_MODES}, "
                f"not {on_failure!r}"
            )
        import multiprocessing

        from repro.net.faults import ShardTransport

        self.spec_p = spec_p
        self.spec_q = spec_q
        self.pair = pair
        self.on_failure = on_failure
        self.shard_timeout_s = shard_timeout_s
        self.retry_policy = retry_policy or SHARD_RETRY_POLICY
        self.hedge_policy = hedge_policy or HedgePolicy()
        self.attempt_timeout_s = (
            attempt_timeout_s if attempt_timeout_s is not None
            else shard_timeout_s / self.retry_policy.max_attempts
        )
        self.probe_interval_s = probe_interval_s
        self.metrics_sink = metrics_sink
        self._transport = transport or ShardTransport()
        self._mp = multiprocessing.get_context(mp_start_method)
        factory = (breaker_factory if breaker_factory is not None
                   else CircuitBreaker)
        self._coordinator_buffer = coordinator_buffer
        self._open_coordinator_trees()
        self._outbox = self._mp.Queue()
        self._shards = [_Shard(i, factory()) for i in range(shards)]
        self._lock = threading.Lock()
        self._pending: Dict[int, _Gather] = {}
        self._ctl: Dict[int, _CtlWait] = {}
        self._req_ids = itertools.count()
        self._attempt_ids = itertools.count()
        self._ctl_ids = itertools.count()
        self._jitter_rng = random.Random(seed)
        #: Trailing completed-chunk latencies feeding the hedge
        #: threshold (bounded; coarse is fine for a quantile).
        self._latency_samples: List[float] = []
        #: Lifetime self-healing counters (also mirrored to
        #: ``metrics_sink``); see :meth:`net_stats`.
        self.counters: Dict[str, int] = {
            "retries": 0, "hedges": 0, "hedge_wins": 0, "respawns": 0,
            "reloads": 0, "frame_errors": 0, "dedup_dropped": 0,
            "probe_misses": 0,
        }
        self._closed = False
        self._stop = threading.Event()
        for shard in self._shards:
            self._spawn(shard)
        self._collector = threading.Thread(
            target=self._collect_loop, name="shard-collector", daemon=True
        )
        self._collector.start()
        self._supervisor: Optional[threading.Thread] = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="shard-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # -- lifecycle ---------------------------------------------------------

    def _open_coordinator_trees(self) -> None:
        """Open the coordinator's handles on the current specs: no
        simulated latency, as partitioning reads only the top levels."""
        self.tree_p, self.tree_q = (
            replace(spec, buffer_capacity=self._coordinator_buffer,
                    read_latency=0.0, use_mmap=False).open()
            for spec in (self.spec_p, self.spec_q)
        )

    def _count(self, event: str, n: int = 1) -> None:
        with self._lock:
            self.counters[event] = self.counters.get(event, 0) + n
        if self.metrics_sink is not None:
            try:
                self.metrics_sink(event, n)
            except Exception:  # pragma: no cover -- sink must not kill us
                pass

    def _spawn(self, shard: _Shard) -> None:
        """(Re)start one shard process with a fresh inbox."""
        shard.inbox = self._mp.Queue()
        shard.process = self._mp.Process(
            target=shard_worker_main,
            args=(shard.shard_id, self.spec_p, self.spec_q,
                  shard.inbox, self._outbox),
            name=f"repro-shard-{shard.shard_id}",
            daemon=True,
        )
        shard.process.start()
        shard.spawned_at = time.monotonic()
        shard.probe_ctl = None
        shard.probe_misses = 0
        shard.generations = None

    def _respawn(self, shard: _Shard) -> bool:
        """Restart a dead shard under capped backoff; True when alive.

        A process that died quickly after its last spawn doubles the
        shard's backoff (bounded) so a crash-looping shard cannot eat
        the coordinator; a longer life resets the ladder.
        """
        with self._lock:
            if shard.alive:
                return True
            now = time.monotonic()
            if now < shard.next_spawn_at:
                return False  # still backing off
            lived = now - shard.spawned_at
            if shard.respawns and lived < _QUICK_DEATH_S:
                shard.backoff_s = min(_MAX_RESPAWN_BACKOFF_S,
                                      max(0.1, shard.backoff_s * 2.0))
            else:
                shard.backoff_s = 0.0
            try:
                self._spawn(shard)
            except OSError:  # pragma: no cover -- spawn failure
                shard.breaker.record_failure()
                return False
            shard.respawns += 1
            shard.next_spawn_at = time.monotonic() + shard.backoff_s
        self._count("respawns")
        return True

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop every shard process, the supervisor and the collector."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout_s)
        self._transport.close()
        for shard in self._shards:
            if shard.alive:
                try:
                    shard.inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + timeout_s
        for shard in self._shards:
            if shard.process is None:
                continue
            shard.process.join(max(0.0, deadline - time.monotonic()))
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(1.0)
        self._collector.join(timeout_s)

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability -----------------------------------------------------

    def health(self) -> List[dict]:
        """Per-shard liveness, breaker state, generation and counters."""
        return [
            {
                "shard": shard.shard_id,
                "alive": shard.alive,
                "breaker": shard.breaker.state,
                "jobs": shard.jobs,
                "failures": shard.failures,
                "respawns": shard.respawns,
                "generation": (list(shard.generations)
                               if shard.generations else None),
            }
            for shard in self._shards
        ]

    def net_stats(self) -> Dict[str, Any]:
        """Lifetime self-healing counters plus the pinned generations.

        Includes the transport's injected-fault tally when the wire is
        a :class:`~repro.net.faults.FaultyShardTransport` (chaos runs
        report what they actually injected).
        """
        with self._lock:
            out: Dict[str, Any] = dict(self.counters)
        out["generation_p"] = self.spec_p.generation
        out["generation_q"] = self.spec_q.generation
        faults = getattr(self._transport, "faults", None)
        if faults is not None:
            out["injected_faults"] = faults.as_dict()
        return out

    # -- control plane (supervisor, hot reload) ----------------------------

    def _send_ctl(self, shard: _Shard, message: tuple,
                  ctl_id: int) -> _CtlWait:
        wait = _CtlWait()
        with self._lock:
            self._ctl[ctl_id] = wait
        try:
            self._transport.send(shard, message)
        except (OSError, ValueError):  # pragma: no cover -- torn queue
            with self._lock:
                self._ctl.pop(ctl_id, None)
            raise
        return wait

    def _drop_ctl(self, ctl_id: int) -> None:
        with self._lock:
            self._ctl.pop(ctl_id, None)

    def _supervise_loop(self) -> None:
        """Periodic health probes and capped-backoff respawn.

        Each cycle: dead shards are respawned (subject to their
        backoff); live shards are probed over the normal wire.  A
        probe answered before the next cycle clears the shard's miss
        counter and refreshes its reported generations; ``
        _PROBE_MISS_LIMIT`` consecutive misses declare the shard hung
        and force a kill + respawn (wedged processes look alive to
        ``is_alive`` forever).
        """
        while not self._stop.wait(self.probe_interval_s):
            if self._closed:
                return
            for shard in self._shards:
                if not shard.alive:
                    self._respawn(shard)
                    continue
                if shard.probe_ctl is not None:
                    wait = self._ctl.get(shard.probe_ctl)
                    if wait is not None and wait.event.is_set():
                        shard.probe_misses = 0
                        try:
                            payload = decode_frame(wait.frame)
                            shard.generations = (
                                payload.get("generation_p", 0),
                                payload.get("generation_q", 0),
                            )
                        except FrameError:
                            self._count("frame_errors")
                        self._drop_ctl(shard.probe_ctl)
                        shard.probe_ctl = None
                    else:
                        shard.probe_misses += 1
                        self._count("probe_misses")
                        self._drop_ctl(shard.probe_ctl)
                        shard.probe_ctl = None
                        if shard.probe_misses >= _PROBE_MISS_LIMIT:
                            shard.probe_misses = 0
                            process = shard.process
                            if process is not None:
                                process.kill()
                                process.join(1.0)
                            self._respawn(shard)
                        continue
                ctl_id = next(self._ctl_ids)
                try:
                    self._send_ctl(shard, ("probe", ctl_id), ctl_id)
                except (OSError, ValueError):  # pragma: no cover
                    continue
                shard.probe_ctl = ctl_id
                shard.probe_sent_at = time.monotonic()

    def reload(self, spec_p: TreeSpec, spec_q: TreeSpec,
               timeout_s: float = 10.0) -> Dict[str, Any]:
        """Hot-reload every shard onto newer pinned tree specs.

        No restart on the happy path: each live shard reopens both
        trees in place (warm interpreter, fresh read handles at the
        new generation) and acks; shards that are dead, back off, or
        fail to ack within ``timeout_s`` are respawned instead --
        fresh processes open the new specs anyway.  The coordinator's
        own partitioning handles are reopened too, so the next query
        partitions and scatters entirely at the new generation.

        Returns a report: the new generations, which shards acked in
        place and which had to be respawned.
        """
        with self._lock:
            self.spec_p = spec_p
            self.spec_q = spec_q
        self._open_coordinator_trees()
        waits: Dict[int, Tuple[_Shard, int, _CtlWait]] = {}
        respawned: List[int] = []
        for shard in self._shards:
            if not shard.alive:
                if self._respawn(shard):
                    respawned.append(shard.shard_id)
                continue
            ctl_id = next(self._ctl_ids)
            try:
                wait = self._send_ctl(
                    shard, ("reload", ctl_id, spec_p, spec_q), ctl_id
                )
            except (OSError, ValueError):  # pragma: no cover
                continue
            waits[shard.shard_id] = (shard, ctl_id, wait)
        deadline = time.monotonic() + timeout_s
        acked: List[int] = []
        for shard_id, (shard, ctl_id, wait) in waits.items():
            remaining = max(0.0, deadline - time.monotonic())
            ok = False
            if wait.event.wait(remaining):
                try:
                    payload = decode_frame(wait.frame)
                    ok = bool(payload.get("ok"))
                    if ok:
                        shard.generations = (
                            payload.get("generation_p", 0),
                            payload.get("generation_q", 0),
                        )
                except FrameError:
                    self._count("frame_errors")
            self._drop_ctl(ctl_id)
            if ok:
                acked.append(shard_id)
            else:
                # No ack: restart the shard; the fresh process opens
                # the new specs, so the reload still lands.
                process = shard.process
                if process is not None:
                    process.kill()
                    process.join(1.0)
                if self._respawn(shard):
                    respawned.append(shard_id)
        self._count("reloads")
        return {
            "generation_p": spec_p.generation,
            "generation_q": spec_q.generation,
            "acked": sorted(acked),
            "respawned": sorted(respawned),
        }

    # -- collection --------------------------------------------------------

    def _collect_loop(self) -> None:
        import queue as _queue

        while not self._closed:
            try:
                message = self._outbox.get(timeout=0.2)
            except _queue.Empty:
                continue
            except (OSError, EOFError, ValueError):  # pragma: no cover
                return  # queue torn down under us during close()
            try:
                self._transport.deliver(message, self._dispatch_reply)
            except Exception:  # pragma: no cover -- transport bug
                continue

    def _dispatch_reply(self, message: tuple) -> None:
        """Route one (possibly damaged) reply to its waiter."""
        kind = message[0]
        if kind == "ctl":
            __, ctl_id, shard_id, frame = message
            with self._lock:
                wait = self._ctl.get(ctl_id)
            if wait is not None:
                wait.frame = frame
                wait.shard_id = shard_id
                wait.event.set()
            return
        if kind != "reply":  # pragma: no cover -- unknown message
            return
        __, req_id, __chunk_id, attempt_id, shard_id, frame = message
        duplicate = False
        with self._lock:
            gather = self._pending.get(req_id)
            if gather is None:
                return  # abandoned gather (deadline expiry)
            if attempt_id in gather.replies:
                duplicate = True  # the wire delivered the same reply twice
            else:
                gather.replies[attempt_id] = (shard_id, frame)
                gather.event.set()
        if duplicate:
            self._count("dedup_dropped")

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        request,
        cancel_check: Optional[Callable[[], None]] = None,
        tracer=None,
    ) -> CPQResult:
        """Run one core :class:`~repro.core.api.CPQRequest` sharded.

        The result is byte-identical (pairs and tie order) to
        ``k_closest_pairs(tree_p, tree_q, request=...)`` on the same
        trees, for every algorithm with ``supports_parallel`` -- see
        the determinism argument in :mod:`repro.core.parallel` plus
        the chunk-idempotence argument in the module docstring (one
        accepted payload per chunk, no matter how many attempts).
        """
        if self._closed:
            raise RuntimeError("ShardManager is closed")
        spec = request.spec
        if not spec.supports_parallel:
            raise ValueError(
                f"algorithm {request.algorithm!r} is not shardable"
            )
        ctx = CPQContext.for_request(
            self.tree_p, self.tree_q, request,
            cancel_check=cancel_check, tracer=tracer,
        )
        if ctx.root_p is None or ctx.root_q is None:
            return ctx.result(spec.label)
        with traced_traversal(ctx, spec.label, sharded=True) as span:
            tasks = partition_tasks(ctx, request)
            self._scatter_gather(ctx, request, tasks)
            if span is not None:
                net = ctx.stats.extra.get("net", {})
                span.annotate(
                    net_retries=net.get("retries", 0),
                    net_hedges=net.get("hedges", 0),
                    net_hedge_wins=net.get("hedge_wins", 0),
                    net_frame_errors=net.get("frame_errors", 0),
                )
        return ctx.result(spec.label)

    def _scatter_gather(self, ctx: CPQContext, request,
                        tasks: List[PartitionTask]) -> None:
        initial_bound = ctx.bound
        net: Dict[str, Any] = {
            "shards": 0,
            "tasks": len(tasks),
            "failed_shards": [],
            "recovered_chunks": 0,
            "partial": False,
            "retries": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "frame_errors": 0,
            "dedup_dropped": 0,
        }
        ctx.stats.extra["net"] = net
        if not tasks:
            # Nothing to scatter: decided before consulting breakers,
            # so no half-open probe slot is ever taken and leaked.
            return
        # Chunks travel as picklable (page_p, page_q, minmin) triples.
        pages = [(t.node_p.page_id, t.node_q.page_id, t.minmin)
                 for t in tasks]
        participants = self._healthy_shards()
        net["shards"] = len(participants)
        if not participants:
            # Every breaker open / every process down: the coordinator
            # degrades to local serial execution over the whole
            # frontier (exact, flagged).
            net["local_fallback"] = True
            run_chunk(ctx, request, pages)
            return

        n = len(participants)
        chunks = [_Chunk(i, pages[i::n]) for i in range(n)]
        req_id = next(self._req_ids)
        gather = _Gather()
        with self._lock:
            self._pending[req_id] = gather
        budget_s = self.shard_timeout_s
        if getattr(request, "deadline_ms", None) is not None:
            # Carve from the request deadline too: no attempt may
            # outlive what the caller is still willing to wait.
            budget_s = min(budget_s, request.deadline_ms / 1000.0)
        deadline = time.monotonic() + budget_s
        failed_shards: Set[int] = set()
        try:
            attempts_by_id: Dict[int, Tuple[_Chunk, _Attempt]] = {}
            for chunk, shard in zip(chunks, participants):
                self._dispatch_attempt(req_id, request, chunk, shard,
                                       deadline, False, initial_bound,
                                       attempts_by_id)
            self._drive_gather(ctx, request, gather, req_id, chunks,
                               participants, deadline, net,
                               failed_shards, initial_bound,
                               attempts_by_id)
        except BaseException:
            # Abandoned gather (service deadline, cancellation): no
            # verdict on any shard's health -- return the half-open
            # probe slots ``allow()`` may have taken, or the breakers
            # would sit half-open forever (the PR 5 probe-leak rule).
            for shard in participants:
                shard.breaker.release_probe()
            raise
        finally:
            with self._lock:
                self._pending.pop(req_id, None)

        # Hedge losers may still be in flight on shards that never got
        # a verdict this query; if such a shard held the half-open
        # probe slot, return it (success/failure was recorded by the
        # attempts that *did* resolve).
        for chunk in chunks:
            for attempt in chunk.live_attempts():
                if chunk.payload is not None:
                    attempt.shard.breaker.release_probe()

        net["failed_shards"] = sorted(failed_shards)
        shard_io = {"disk_reads": 0, "buffer_hits": 0}
        undelivered: List[_Chunk] = []
        for chunk in chunks:
            payload = chunk.payload
            if payload is None:
                undelivered.append(chunk)
                continue
            if chunk.won_by_hedge:
                net["hedge_wins"] += 1
                self._count("hedge_wins")
            for pair in payload["pairs"]:
                ctx.kheap.offer(pair)
            ctx.stats.fold_traversal(payload)
            shard_io["disk_reads"] += payload["disk_reads"]
            shard_io["buffer_hits"] += payload["buffer_hits"]
        # Shards count their own I/O; fold it into the query's stats
        # (the coordinator's tree counters only saw partitioning).
        ctx.stats.disk_accesses += shard_io["disk_reads"]
        ctx.stats.buffer_hits += shard_io["buffer_hits"]
        net["shard_io"] = shard_io

        if undelivered:
            if self.on_failure == "recover":
                # Coordinator-side recovery: the query's own context
                # runs the chunk, offering straight into its K-heap.
                for chunk in undelivered:
                    run_chunk(ctx, request, chunk.tasks)
                    net["recovered_chunks"] += 1
            else:
                net["partial"] = True

    def _dispatch_attempt(self, req_id: int, request, chunk: _Chunk,
                          shard: _Shard, deadline: float, hedge: bool,
                          initial_bound,
                          attempts_by_id: Dict[int, Tuple[_Chunk,
                                                          _Attempt]],
                          ) -> None:
        """Send one chunk to one shard as a fresh idempotent attempt."""
        now = time.monotonic()
        remaining = max(0.0, deadline - now)
        timeout_s = min(self.attempt_timeout_s, remaining)
        attempt_id = next(self._attempt_ids)
        attempt = _Attempt(attempt_id, shard, now, timeout_s, hedge)
        chunk.attempts.append(attempt)
        chunk.tried.add(shard.shard_id)
        attempts_by_id[attempt_id] = (chunk, attempt)
        shard.jobs += 1
        message = (
            "query", req_id, chunk.chunk_id, attempt_id, request,
            chunk.tasks, initial_bound,
        )
        try:
            self._transport.send(shard, message)
        except (OSError, ValueError):  # pragma: no cover -- torn queue
            attempt.done = True
            chunk.failures += 1

    def _fail_attempt(self, chunk: _Chunk, attempt: _Attempt,
                      net: Dict[str, Any], failed_shards: Set[int],
                      error: Optional[str], deadline_flag: bool) -> None:
        shard = attempt.shard
        attempt.done = True
        if deadline_flag:
            shard.breaker.release_probe()
        else:
            shard.breaker.record_failure()
        shard.failures += 1
        failed_shards.add(shard.shard_id)
        if error:
            net.setdefault("shard_errors", {})[str(shard.shard_id)] = error
        chunk.failures += 1
        with self._lock:
            delay = self.retry_policy.delay(chunk.failures,
                                            self._jitter_rng)
        chunk.next_retry_at = time.monotonic() + delay

    def _pick_shard(self, chunk: _Chunk, participants: List[_Shard],
                    exclude: Set[int]) -> Optional[_Shard]:
        """The retry/hedge target: alive, not excluded, fresh first."""
        candidates = [
            shard for shard in participants
            if shard.alive and shard.shard_id not in exclude
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda s: (s.shard_id in chunk.tried,
                                       s.jobs, s.shard_id))
        return candidates[0]

    def _drive_gather(self, ctx: CPQContext, request, gather: _Gather,
                      req_id: int, chunks: List[_Chunk],
                      participants: List[_Shard], deadline: float,
                      net: Dict[str, Any], failed_shards: Set[int],
                      initial_bound,
                      attempts_by_id: Dict[int, Tuple[_Chunk, _Attempt]],
                      ) -> None:
        """The per-chunk state machine: collect, time out, retry, hedge.

        Runs until every chunk has exactly one accepted payload, the
        gather budget lapses, or every undelivered chunk has exhausted
        its retry ladder with no dispatchable shard left.  The
        coordinator's cancel probe (service deadline) runs at poll
        cadence, so expiry aborts promptly -- in-flight shard work is
        simply abandoned (replies for an unregistered gather are
        dropped by the collector).
        """
        consumed: Set[int] = set()
        max_attempts = self.retry_policy.max_attempts
        while True:
            ctx.check_cancelled()
            now = time.monotonic()

            # 1. Consume newly arrived replies.
            with self._lock:
                fresh = [
                    (attempt_id, shard_id, frame)
                    for attempt_id, (shard_id, frame)
                    in gather.replies.items()
                    if attempt_id not in consumed
                ]
                gather.event.clear()
            for attempt_id, __, frame in fresh:
                consumed.add(attempt_id)
                entry = attempts_by_id.get(attempt_id)
                if entry is None:  # pragma: no cover -- foreign reply
                    continue
                chunk, attempt = entry
                if chunk.payload is not None:
                    # Retried/hedged duplicate after the chunk already
                    # delivered: idempotence in action -- counted,
                    # dropped, never merged twice.
                    attempt.done = True
                    net["dedup_dropped"] += 1
                    self._count("dedup_dropped")
                    continue
                try:
                    payload = decode_frame(frame)
                except FrameError as exc:
                    net["frame_errors"] += 1
                    self._count("frame_errors")
                    self._fail_attempt(chunk, attempt, net, failed_shards,
                                       f"FrameError: {exc}", False)
                    continue
                if payload.get("ok"):
                    attempt.done = True
                    chunk.payload = payload
                    chunk.won_by_hedge = attempt.hedge
                    attempt.shard.breaker.record_success()
                    with self._lock:
                        self._latency_samples.append(now - attempt.started)
                        del self._latency_samples[:-256]
                else:
                    self._fail_attempt(
                        chunk, attempt, net, failed_shards,
                        payload.get("error"),
                        bool(payload.get("deadline")),
                    )

            # 2. Attempt timeouts and dead processes.
            for chunk in chunks:
                if chunk.payload is not None:
                    continue
                for attempt in chunk.live_attempts():
                    if not attempt.shard.alive:
                        self._fail_attempt(chunk, attempt, net,
                                           failed_shards,
                                           "shard process died", False)
                        self._respawn(attempt.shard)
                    elif now - attempt.started > attempt.timeout_s:
                        self._fail_attempt(chunk, attempt, net,
                                           failed_shards,
                                           "attempt timed out", False)

            # 3. Done, out of budget, or out of options?
            pending = [c for c in chunks if c.payload is None]
            if not pending:
                return
            if now >= deadline:
                return
            hopeless = all(
                not chunk.live_attempts()
                and (chunk.failures >= max_attempts
                     or self._pick_shard(chunk, participants, set())
                     is None)
                for chunk in pending
            )
            if hopeless:
                return

            # 4. Retries: exhausted-attempt chunks go back out, to a
            #    different shard when one is available, after backoff.
            for chunk in pending:
                if chunk.live_attempts():
                    continue
                if chunk.failures >= max_attempts:
                    continue
                if now < chunk.next_retry_at:
                    continue
                last = chunk.attempts[-1].shard.shard_id \
                    if chunk.attempts else -1
                shard = (self._pick_shard(chunk, participants, {last})
                         or self._pick_shard(chunk, participants, set()))
                if shard is None:
                    continue
                net["retries"] += 1
                self._count("retries")
                self._dispatch_attempt(req_id, request, chunk, shard,
                                       deadline, False, initial_bound,
                                       attempts_by_id)

            # 5. Hedges: one slow live attempt earns a duplicate on a
            #    sibling once it crosses the latency-quantile threshold.
            if self.hedge_policy.enabled:
                with self._lock:
                    threshold = self.hedge_policy.threshold(
                        self._latency_samples
                    )
                for chunk in pending:
                    live = chunk.live_attempts()
                    if (len(live) != 1
                            or chunk.hedges >= self.hedge_policy.max_hedges):
                        continue
                    slow = live[0]
                    if now - slow.started < threshold:
                        continue
                    sibling = self._pick_shard(
                        chunk, participants, {slow.shard.shard_id}
                    )
                    if sibling is None:
                        continue
                    chunk.hedges += 1
                    net["hedges"] += 1
                    self._count("hedges")
                    self._dispatch_attempt(req_id, request, chunk, sibling,
                                           deadline, True, initial_bound,
                                           attempts_by_id)

            gather.event.wait(_POLL_S)

    def _healthy_shards(self) -> List[_Shard]:
        """Shards whose breaker admits work, respawning dead processes
        the breaker is willing to probe."""
        healthy = []
        for shard in self._shards:
            if not shard.breaker.allow():
                continue
            if not shard.alive and not self._respawn(shard):
                shard.breaker.release_probe()
                continue
            healthy.append(shard)
        return healthy

    # -- service integration ----------------------------------------------

    def service_executor(self) -> Callable:
        """A ``cpq_executor`` for :class:`~repro.service.QueryService`.

        Routes shardable CPQ executions for this manager's pair
        through :meth:`execute`; declines (returns ``None``) other
        pairs and algorithms without ``supports_parallel``, which then
        run in-process as before.
        """

        def executor(pair_name: str, tree_p: RTree, tree_q: RTree,
                     core_request, cancel_check, tracer
                     ) -> Optional[CPQResult]:
            if pair_name != self.pair:
                return None
            if not core_request.spec.supports_parallel:
                return None
            return self.execute(core_request, cancel_check=cancel_check,
                                tracer=tracer)

        return executor

"""Public entry points for closest pair queries.

:class:`CPQRequest` is the one description of a K-CPQ: every consumer
-- :func:`k_closest_pairs`, the query service, the planner, the result
cache, and the CLI -- builds or receives the same frozen object instead
of re-plumbing nine keyword arguments.  :data:`ALGORITHM_REGISTRY` is
the single source of truth for the available algorithms and their
capability flags.

:func:`k_closest_pairs` runs any registered algorithm on two R-trees
and returns a :class:`~repro.core.result.CPQResult` carrying the K
pairs and the cost statistics.  The request object is the only way to
describe a query -- the historical keyword shim (deprecated since the
parallel-executor release) is gone; see ``docs/API.md`` for the
changelog note.  :func:`closest_pair` is the 1-CPQ convenience
wrapper.

Range-constrained and colored queries attach a
:class:`~repro.core.constraints.RangeSpec` /
:class:`~repro.core.constraints.ColorSpec` to the request; algorithms
whose registry entry sets ``supports_range`` / ``supports_colors``
honour them, and requesting a constraint on any other algorithm raises
:class:`~repro.errors.UnsupportedCapabilityError` at construction.

Example
-------
>>> from repro.rtree.bulk import bulk_load
>>> from repro.core import CPQRequest, k_closest_pairs
>>> sites = bulk_load([(0.0, 0.0), (5.0, 5.0)])
>>> resorts = bulk_load([(1.0, 1.0), (9.0, 9.0)])
>>> result = k_closest_pairs(
...     sites, resorts, request=CPQRequest(k=1, algorithm="heap")
... )
>>> result.pairs[0].p, result.pairs[0].q
((0.0, 0.0), (1.0, 1.0))
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.core.constraints import ColorSpec, RangeSpec
from repro.core.engine import CPQContext, traced_traversal
from repro.errors import (
    DeadlineExceeded,
    PageCorruptionError,
    UnsupportedCapabilityError,
)
from repro.core.exhaustive import exhaustive
from repro.core.heap import heap_algorithm
from repro.core.height import FIX_AT_ROOT, validate_strategy
from repro.core.naive import naive
from repro.core.parallel import (
    PARTITION_DEPTHS,
    parallel_k_closest_pairs,
)
from repro.core.result import ClosestPair, CPQResult
from repro.core.simple import simple
from repro.core.sorted_distances import sorted_distances
from repro.core.ties import TieBreak
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.rtree.tree import RTree
from repro.storage.paged_file import split_buffer


# DeadlineExceeded now lives in the unified repro.errors taxonomy; the
# import above re-exports it here (and, transitively, from
# repro.service) for compatibility with every existing import site.


# ---------------------------------------------------------------------------
# Algorithm registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered CPQ algorithm and its capability flags.

    The flags let generic consumers (CLI, planner, service validation)
    reason about an algorithm without hard-coding its name, e.g.
    whether the cost-model planner may select it (NAIVE is correct but
    exponentially expensive, so it is registered as not plannable).

    ``supports_parallel`` marks algorithms the partitioned executor
    (:mod:`repro.core.parallel`) can run with ``workers > 1``.
    ``supports_range`` / ``supports_colors`` mark algorithms that
    honour a request's :class:`~repro.core.constraints.RangeSpec` /
    :class:`~repro.core.constraints.ColorSpec`; request validation
    *enforces* these flags (an incapable combination raises
    :class:`~repro.errors.UnsupportedCapabilityError`).
    ``extension`` marks the query types of Section 6 and the
    incremental baseline, whose answers are not an ordinary two-tree
    K-CPQ: ``self`` (P = Q), ``semi`` (one pair per P point) and
    ``incremental`` (Hjaltason & Samet distance join).
    """

    name: str
    label: str
    description: str
    plannable: bool = True
    supports_parallel: bool = False
    supports_range: bool = False
    supports_colors: bool = False
    #: A constrained-query specialisation of a core traversal (clipped
    #: pruning, candidate structures); excluded from
    #: :data:`CORE_ALGORITHMS` so the paper's five-algorithm suites
    #: keep their shape.
    specialized: bool = False
    extension: bool = False
    runner: Optional[Callable[..., CPQResult]] = field(
        default=None, repr=False, compare=False
    )


def _run_naive(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    return naive(ctx, request.height_strategy)


def _run_exh(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    return exhaustive(ctx, request.height_strategy)


def _run_sim(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    return simple(ctx, request.height_strategy, request.maxmax_pruning)


def _run_std(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    return sorted_distances(
        ctx,
        request.height_strategy,
        request.tie_break,
        request.maxmax_pruning,
    )


def _run_heap(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    return heap_algorithm(
        ctx,
        request.height_strategy,
        request.tie_break,
        request.maxmax_pruning,
    )


def _run_clipped(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    result = heap_algorithm(
        ctx,
        request.height_strategy,
        request.tie_break,
        request.maxmax_pruning,
        clip_mindist=True,
    )
    return replace(result, algorithm="CLIPPED")


def _run_rcp(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    from repro.query.rcp import rcp_k_closest_pairs

    return rcp_k_closest_pairs(ctx, request)


def _run_self(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    # The context runs in self-join mode.  Section 3.8's MAXMAXDIST
    # accumulation assumes two disjoint point sets, so it stays off.
    # Without a requested chain, MINMINDIST ties pop in insertion
    # order: on 20k uniform points at a 16-page buffer, T1's order
    # reads about 9 % more pages.
    return heap_algorithm(
        ctx,
        request.height_strategy,
        request.tie_break if request.tie_break is not None else TieBreak([]),
        maxmax_pruning=False,
        name=request.spec.label,
    )


def _run_semi(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    from repro.extensions.semi_cpq import NAME, semi_pairs

    with traced_traversal(ctx, NAME):
        pairs = semi_pairs(ctx.tree_p, ctx.tree_q, request.metric,
                           ctx.stats, ctx.cancel_check)
    ctx.settle_io()
    return CPQResult(pairs=sorted(pairs), stats=ctx.stats, algorithm=NAME,
                     k=len(pairs))


def _run_incremental(ctx: CPQContext, request: "CPQRequest") -> CPQResult:
    from repro.incremental.distance_join import incremental_distance_join

    with traced_traversal(ctx, "INC"):
        pairs = list(incremental_distance_join(
            ctx.tree_p, ctx.tree_q, metric=request.metric,
            k_bound=request.k, stats=ctx.stats,
            cancel_check=ctx.cancel_check,
        ))
    # The join's own ledger opened after the context's root reads.
    ctx.settle_io()
    return CPQResult(pairs=pairs, stats=ctx.stats, algorithm="INC-SML",
                     k=request.k)


#: The single source of truth for available algorithms.  CLI choices,
#: planner candidates, and request validation all derive from it.
ALGORITHM_REGISTRY: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            name="naive",
            label="NAIVE",
            description="recursive, no pruning (ground truth baseline)",
            plannable=False,
            supports_parallel=True,
            supports_range=True,
            supports_colors=True,
            runner=_run_naive,
        ),
        AlgorithmSpec(
            name="exh",
            label="EXH",
            description="prunes by MINMINDIST against T (Section 3.2)",
            supports_parallel=True,
            supports_range=True,
            supports_colors=True,
            runner=_run_exh,
        ),
        AlgorithmSpec(
            name="sim",
            label="SIM",
            description="EXH + early T from MINMAXDIST (Section 3.3)",
            supports_parallel=True,
            supports_range=True,
            supports_colors=True,
            runner=_run_sim,
        ),
        AlgorithmSpec(
            name="std",
            label="STD",
            description="SIM + ascending MINMINDIST order (Section 3.4)",
            supports_parallel=True,
            supports_range=True,
            supports_colors=True,
            runner=_run_std,
        ),
        AlgorithmSpec(
            name="heap",
            label="HEAP",
            description="global min-heap instead of recursion (Section 3.5)",
            supports_parallel=True,
            supports_range=True,
            supports_colors=True,
            runner=_run_heap,
        ),
        AlgorithmSpec(
            name="clipped",
            label="CLIPPED",
            description="HEAP with MINMINDIST evaluated on range-clipped "
                        "MBRs (tighter pruning inside a window)",
            plannable=False,
            supports_parallel=True,
            supports_range=True,
            supports_colors=True,
            specialized=True,
            runner=_run_clipped,
        ),
        AlgorithmSpec(
            name="rcp",
            label="RCP",
            description="precomputed-candidate structure for repeated "
                        "ranges (RCP literature); exact, memoised per "
                        "canonical window",
            plannable=False,
            supports_range=True,
            supports_colors=True,
            specialized=True,
            runner=_run_rcp,
        ),
        AlgorithmSpec(
            name="self",
            label="SELF-HEAP",
            description="K closest pairs within one set (Section 6); "
                        "pass the same tree as both sides",
            plannable=False,
            extension=True,
            runner=_run_self,
        ),
        AlgorithmSpec(
            name="semi",
            label="SEMI",
            description="all-nearest-neighbour join (Section 6); one "
                        "pair per P point, k ignored",
            plannable=False,
            extension=True,
            runner=_run_semi,
        ),
        AlgorithmSpec(
            name="incremental",
            label="INC",
            description="Hjaltason & Samet incremental distance join, "
                        "K-bounded (SML policy)",
            plannable=False,
            extension=True,
            runner=_run_incremental,
        ),
    )
}

#: Algorithm names in registration order; keys accepted by
#: :func:`k_closest_pairs` (kept for backwards compatibility -- derive
#: capability answers from :data:`ALGORITHM_REGISTRY`).
ALGORITHMS: Tuple[str, ...] = tuple(ALGORITHM_REGISTRY)

#: The five two-tree branch-and-bound K-CPQ algorithms from the paper;
#: the subset of :data:`ALGORITHMS` that answers an ordinary pairwise
#: query over two distinct trees (range specialists and extension
#: query types -- self join, semi join, incremental -- are excluded).
CORE_ALGORITHMS: Tuple[str, ...] = tuple(
    name
    for name, spec in ALGORITHM_REGISTRY.items()
    if not (spec.specialized or spec.extension)
)

#: Names the cost-model planner may choose between.
PLANNABLE_ALGORITHMS: Tuple[str, ...] = tuple(
    name for name, spec in ALGORITHM_REGISTRY.items() if spec.plannable
)

#: Algorithms that honour a request's range window / color predicates;
#: request validation enforces membership.
RANGE_ALGORITHMS: Tuple[str, ...] = tuple(
    name for name, spec in ALGORITHM_REGISTRY.items() if spec.supports_range
)

COLOR_ALGORITHMS: Tuple[str, ...] = tuple(
    name for name, spec in ALGORITHM_REGISTRY.items() if spec.supports_colors
)


# ---------------------------------------------------------------------------
# Query description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CPQRequest:
    """Immutable description of one K closest pairs query.

    Validation and normalisation happen at construction (unknown
    algorithm / strategy / tie criterion, non-positive ``k`` or
    ``deadline_ms``, negative ``buffer_pages``), so a request that
    exists is runnable.  ``tie_break`` accepts anything
    :meth:`TieBreak.parse` does and is stored parsed.

    Execution-environment concerns (an externally supplied tracer or
    cancellation probe) stay arguments of :func:`k_closest_pairs`; the
    request describes *what* to compute, plus the ``deadline_ms`` /
    ``trace`` conveniences for callers without a service around them.

    ``reset_stats`` only cold-starts the trees (empty buffers, zeroed
    lifetime counters): the result's I/O figures are this query's
    delta either way.  The service turns it off to keep buffers warm.

    ``workers`` > 1 routes algorithms with ``supports_parallel``
    through the partitioned executor (:mod:`repro.core.parallel`):
    ``partition_depth`` levels of root expansion feed ``workers``
    threads.  These are execution-only knobs -- the result is
    byte-identical to serial -- so they are excluded from
    :meth:`cache_key`.

    ``range`` restricts reported pairs to a window
    (:class:`~repro.core.constraints.RangeSpec`; a bare ``(lo, hi)``
    tuple is accepted and normalised) and ``colors`` to category
    combinations (:class:`~repro.core.constraints.ColorSpec`; a bare
    int is taken as the modulus of a distinct-colored query).  Both
    require the algorithm's registry entry to declare the matching
    capability flag, enforced here with
    :class:`~repro.errors.UnsupportedCapabilityError`.
    """

    k: int = 1
    algorithm: str = "heap"
    metric: MinkowskiMetric = EUCLIDEAN
    height_strategy: str = FIX_AT_ROOT
    tie_break: Optional[TieBreak] = None
    buffer_pages: Optional[int] = None
    maxmax_pruning: bool = True
    deadline_ms: Optional[float] = None
    trace: bool = False
    reset_stats: bool = True
    workers: int = 1
    partition_depth: int = 1
    range: Optional[RangeSpec] = None
    colors: Optional[ColorSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", str(self.algorithm).lower())
        if self.algorithm not in ALGORITHM_REGISTRY:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        object.__setattr__(self, "range", RangeSpec.coerce(self.range))
        object.__setattr__(self, "colors", ColorSpec.coerce(self.colors))
        spec = ALGORITHM_REGISTRY[self.algorithm]
        if self.range is not None and not spec.supports_range:
            raise UnsupportedCapabilityError(
                self.algorithm, "range", RANGE_ALGORITHMS
            )
        if self.colors is not None and not spec.supports_colors:
            raise UnsupportedCapabilityError(
                self.algorithm, "colors", COLOR_ALGORITHMS
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.buffer_pages is not None and self.buffer_pages < 0:
            raise ValueError("buffer_pages must be >= 0")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.partition_depth not in PARTITION_DEPTHS:
            raise ValueError(
                f"partition_depth must be one of {PARTITION_DEPTHS}"
            )
        validate_strategy(self.height_strategy)
        if self.tie_break is not None:
            object.__setattr__(self, "tie_break", TieBreak.parse(self.tie_break))

    @property
    def spec(self) -> AlgorithmSpec:
        """The registry entry for this request's algorithm."""
        return ALGORITHM_REGISTRY[self.algorithm]

    def cache_key(self) -> Tuple:
        """The result-identity of this request as primitives.

        Two requests with equal keys return identical pairs on the same
        tree generations: fields that only change *how* the answer is
        computed (buffers, deadline, tracing, stats, and the parallel
        execution knobs ``workers`` / ``partition_depth``) are
        excluded.  Constraints contribute their *canonical*
        forms -- corners sorted and floats normalised at construction
        -- so a window given as ``(hi, lo)`` hits the cache entry of
        the same window given as ``(lo, hi)``.
        """
        return (
            self.k,
            self.algorithm,
            self.metric.p,
            self.height_strategy,
            repr(self.tie_break) if self.tie_break is not None else None,
            self.maxmax_pruning,
            self.range.canonical() if self.range is not None else None,
            self.colors.canonical() if self.colors is not None else None,
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def k_closest_pairs(
    tree_p: RTree,
    tree_q: RTree,
    request: Optional[CPQRequest] = None,
    *,
    cancel_check: Optional[Callable[[], None]] = None,
    tracer=None,
) -> CPQResult:
    """Find the K closest pairs between the points of two R-trees.

    Parameters
    ----------
    tree_p, tree_q:
        The two indexed point sets (coordinates in workspace units;
        distances in the result are in the same units).
    request:
        The :class:`CPQRequest` describing *what* to compute -- k,
        algorithm, metric, constraints, every query knob.  ``None``
        runs the default request (1-CPQ via HEAP).  The historical
        keyword signature was removed after a deprecation cycle; build
        a request instead (see ``docs/API.md``).
    cancel_check:
        Cooperative-cancellation probe, called once per visited node
        pair; whatever it raises (a deadline, a shutdown signal)
        propagates out of the traversal.  Used by the query service.
        Beats ``request.deadline_ms`` when both are given.
    tracer:
        A :class:`repro.obs.Tracer` to record this query as a span
        tree (``traverse`` with ``io.p``/``io.q`` I/O-delta leaves and,
        for HEAP, a ``heap`` queue span); ``None`` (the default)
        installs the no-op tracer and leaves the hot path untouched.
        Beats ``request.trace``.  See ``docs/OBSERVABILITY.md``.

    Returns
    -------
    CPQResult
        Pairs sorted by ascending distance plus cost statistics:
        ``stats.disk_accesses`` (the paper's Figures 4-10 metric, in
        this query's node reads that missed the buffer), ``buffer_hits``,
        ``distance_computations``, ``node_pairs_visited``,
        ``max_queue_size`` and ``queue_inserts`` (Section 3.9).
    """
    if request is None:
        request = CPQRequest()
    if request.buffer_pages is not None:
        split_buffer(tree_p.file, tree_q.file, request.buffer_pages)
    if request.reset_stats:
        tree_p.file.reset_for_query()
        tree_q.file.reset_for_query()
    if cancel_check is None and request.deadline_ms is not None:
        cancel_check = DeadlineExceeded.probe(
            time.monotonic() + request.deadline_ms / 1000.0
        )
    local_tracer = None
    if tracer is None and request.trace:
        from repro.obs.trace import Tracer

        local_tracer = tracer = Tracer()

    result = fallback = None
    if request.workers > 1 and request.spec.supports_parallel:
        try:
            result = parallel_k_closest_pairs(
                tree_p,
                tree_q,
                request,
                cancel_check=cancel_check,
                tracer=tracer,
            )
        except (DeadlineExceeded, ValueError):
            # Cancellation is the caller's intent; ValueError covers
            # misconfiguration and PageCorruptionError, both
            # deterministic -- a serial rerun would only hit them
            # again.
            raise
        except Exception as exc:  # noqa: BLE001 -- degrade, don't die
            # Graceful degradation: a worker-pool failure (exhausted
            # transient retries in one worker, executor breakage)
            # falls back to the serial engine, which re-reads through
            # the buffer and may well succeed.  The fallback is
            # recorded in the result's stats for observability.
            fallback = {
                "error": f"{type(exc).__name__}: {exc}",
                "workers_requested": request.workers,
            }
    if result is None:
        ctx = CPQContext.for_request(
            tree_p, tree_q, request,
            cancel_check=cancel_check, tracer=tracer,
        )
        result = request.spec.runner(ctx, request)
        if fallback is not None:
            result.stats.extra["parallel_fallback"] = fallback
    if local_tracer is not None:
        traces = local_tracer.pop_traces()
        result.trace = traces[-1] if traces else None
    return result


def closest_pair(
    tree_p: RTree,
    tree_q: RTree,
    algorithm: str = "heap",
    **kwargs,
) -> Optional[ClosestPair]:
    """The single closest pair (1-CPQ), or ``None`` if either set is
    empty.

    Parameters
    ----------
    tree_p, tree_q:
        The two indexed point sets.
    algorithm:
        As for :func:`k_closest_pairs`; the 1-CPQ case uses the
        stronger MINMAXDIST bound of Inequality 2 (Section 2.3).
    **kwargs:
        Forwarded to :func:`k_closest_pairs` (metric, buffer_pages,
        tracer, ...).

    Returns
    -------
    Optional[ClosestPair]
        The minimum-distance pair (distance in workspace units), or
        ``None`` when ``|P| * |Q| == 0``.
    """
    tracer = kwargs.pop("tracer", None)
    cancel_check = kwargs.pop("cancel_check", None)
    request = CPQRequest(k=1, algorithm=algorithm, **kwargs)
    result = k_closest_pairs(
        tree_p, tree_q, request=request,
        cancel_check=cancel_check, tracer=tracer,
    )
    return result.pairs[0] if result.pairs else None

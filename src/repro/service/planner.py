"""Algorithm selection for the query service.

The paper's conclusion (Section 4.4) is not "always use HEAP": which
of the five algorithms wins depends on tree sizes, buffer space and K.
The planner encodes that policy using the analytical cost model of
:mod:`repro.analysis.cost_model` plus the tree heights and the buffer
capacity actually configured on the queried pair:

* trivial trees (both a single leaf) -- ``exh``: one leaf scan; the
  sorting/heap machinery is pure overhead;
* predicted workload of a handful of node pairs -- ``sim``: pruning
  pays, ordering does not;
* working set fits the LRU buffer -- ``std``: the recursive sorted
  algorithm re-reads pages, but the buffer absorbs the re-reads
  (Figure 6 shows STD converging to HEAP as B grows) and it avoids
  HEAP's global queue;
* otherwise -- ``heap``: the global best-first order minimises disk
  accesses when buffer space is scarce, the regime where the paper
  finds it strongest.

``NAIVE`` is never planned; it exists as an experimental baseline.
For trees the cost model cannot shape (empty, or not 2-dimensional)
the planner falls back to ``heap``, the paper's best general answer.

Requests carrying a range window route through a separate ranged
policy: the planner estimates the window's workspace selectivity
(:func:`~repro.analysis.cost_model.estimate_range_selectivity`) and
picks the memoized RCP candidate structure for small windows or the
CLIPPED traversal for large ones.

Offered a worker budget, the planner spends it only on I/O the
threads can hide: :func:`~repro.analysis.cost_model.estimate_query_ms`
prices a query as serial CPU per node pair plus page-read waits, and
only the waits divide across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.analysis.cost_model import (
    IndexKindDecision,
    TreeShape,
    estimate_closest_pair_distance,
    estimate_cpq_accesses,
    estimate_query_ms,
    estimate_range_selectivity,
    grid_occupancy_cv,
    recommend_index_kind,
)
from repro.core.api import ALGORITHM_REGISTRY, PLANNABLE_ALGORITHMS
from repro.obs.trace import NULL_TRACER

#: The algorithms this planner chooses between, from the shared
#: registry (every non-plannable entry -- NAIVE -- is excluded there).
CANDIDATES = PLANNABLE_ALGORITHMS

#: Chosen when the cost model cannot shape a tree: the paper's best
#: general answer.
FALLBACK = "heap"
assert FALLBACK in CANDIDATES

#: Predicted disk accesses at or below which candidate ordering cannot
#: pay for itself: such queries run ``sim``.
SIM_THRESHOLD = 24.0

#: Ranged plans: windows covering at most this workspace fraction go
#: to the memoized RCP candidate structure (small windows produce
#: small, highly reusable candidate lists); larger windows run the
#: CLIPPED traversal directly.
RCP_SELECTIVITY_THRESHOLD = 0.10

#: Minimum predicted speedup before a plan spends worker threads on
#: one query.
PARALLEL_SPEEDUP_MARGIN = 1.5


@dataclass(frozen=True)
class PlanDecision:
    """One planner verdict, with the evidence it was based on."""

    algorithm: str
    reason: str
    estimated_accesses: float
    estimated_distance: float
    buffer_pages: int
    height_p: int
    height_q: int
    k: int
    #: Intra-query worker threads the executor should use (1 = serial).
    #: Only > 1 when the caller offered a worker budget AND the
    #: threads are predicted to hide enough page-read waits to clear
    #: :data:`PARALLEL_SPEEDUP_MARGIN`.
    workers: int = 1
    #: Predicted wall-clock speedup at ``workers`` (1.0 when serial).
    estimated_speedup: float = 1.0
    #: Estimated fraction of the workspace the query window covers
    #: (``None`` for unconstrained plans).
    range_selectivity: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "reason": self.reason,
            "estimated_accesses": self.estimated_accesses,
            "estimated_distance": self.estimated_distance,
            "buffer_pages": self.buffer_pages,
            "heights": [self.height_p, self.height_q],
            "k": self.k,
            "workers": self.workers,
            "estimated_speedup": round(self.estimated_speedup, 3),
        }
        if self.range_selectivity is not None:
            out["range_selectivity"] = round(self.range_selectivity, 4)
        return out


class Planner:
    """Chooses a CPQ algorithm per request from cost-model estimates,
    and an index kind per dataset."""

    def plan_index(self, points) -> IndexKindDecision:
        """Recommend an index kind for one dataset's points (the
        catalog's ``kind="auto"`` path), from their count and
        grid-occupancy skew
        (:func:`~repro.analysis.cost_model.grid_occupancy_cv`)."""
        return recommend_index_kind(len(points), grid_occupancy_cv(points))

    def plan_trees(
        self,
        tree_p,
        tree_q,
        buffer_pages: int,
        k: int = 1,
        *,
        shapes: Optional[Callable[[], Tuple]] = None,
        **options,
    ) -> Tuple[str, Optional[PlanDecision]]:
        """Resolve ``algorithm="auto"`` for one tree pair.

        One tree on both sides (CPQL ``FROM a``, ``query a a``) is the
        self-join, which only ``self`` answers: nothing is left to
        plan, and the decision is None.  Otherwise :meth:`plan` picks
        from the trees' shapes -- ``shapes()`` when given (the service
        caches them per generation), else measured here.  ``options``
        are :meth:`plan`'s keywords.
        """
        if tree_p is tree_q:
            return "self", None
        shape_p, shape_q = (
            shapes() if shapes is not None
            else (TreeShape.of(tree_p), TreeShape.of(tree_q))
        )
        decision = self.plan(shape_p, shape_q, buffer_pages, k, **options)
        return decision.algorithm, decision

    def plan(
        self,
        shape_p: Optional[TreeShape],
        shape_q: Optional[TreeShape],
        buffer_pages: int,
        k: int = 1,
        tracer=NULL_TRACER,
        workers: int = 1,
        degraded: bool = False,
        range_spec=None,
    ) -> PlanDecision:
        """Pick an algorithm for one K-CPQ against a shaped tree pair.

        Parameters
        ----------
        shape_p, shape_q:
            Cost-model shapes of the two trees
            (:meth:`~repro.analysis.cost_model.TreeShape.from_tree`);
            ``None`` when the model cannot describe a tree (empty, or
            not 2-d), which forces the ``heap`` fallback.
        buffer_pages:
            Total LRU pages configured on the queried pair (both
            halves), compared against the predicted working set.
        k:
            Requested result cardinality; scales the predicted reach
            by ``sqrt(k)`` (uniform pair-population argument).
        workers:
            Worker-thread budget the caller is willing to spend on
            this one query (the service's ``max_query_workers``).  The
            decision's ``workers`` field is 1 unless
            :func:`~repro.analysis.cost_model.estimate_query_ms`,
            given the shapes' read latency, predicts the budget at
            least :data:`PARALLEL_SPEEDUP_MARGIN` times faster than
            serial.
        tracer:
            Optional :class:`repro.obs.Tracer`; when enabled, the
            decision is recorded as a ``plan`` span carrying the full
            evidence (:meth:`PlanDecision.as_dict`).
        degraded:
            The pair's storage is suspect (its circuit breaker is not
            closed): cap the plan at one worker so a struggling device
            is not hit by a fan-out of parallel readers.
        range_spec:
            Optional :class:`repro.core.constraints.RangeSpec`.  Ranged
            plans choose between the specialized range algorithms by
            estimated window selectivity
            (:func:`~repro.analysis.cost_model.estimate_range_selectivity`):
            at most :data:`RCP_SELECTIVITY_THRESHOLD` -> ``rcp``
            (memoized candidate structure), above it -> ``clipped``
            (clipped best-first traversal).

        Returns
        -------
        PlanDecision
            The chosen algorithm plus the estimates it was based on
            (``estimated_accesses`` in disk accesses,
            ``estimated_distance`` in workspace units).
        """
        if degraded:
            workers = 1
        if not tracer.enabled:
            decision = self._decide(shape_p, shape_q, buffer_pages, k,
                                    workers, range_spec)
        else:
            with tracer.span("plan") as span:
                decision = self._decide(shape_p, shape_q, buffer_pages, k,
                                        workers, range_spec)
                span.annotate(**decision.as_dict())
                if degraded:
                    span.annotate(degraded=True)
        spec = ALGORITHM_REGISTRY[decision.algorithm]
        # Unconstrained plans stay within the paper's plannable set;
        # ranged plans may pick the specialized range algorithms.
        assert spec.plannable or spec.specialized, (
            f"planner chose unplannable {spec.name!r}"
        )
        return decision

    def _decide(
        self,
        shape_p: Optional[TreeShape],
        shape_q: Optional[TreeShape],
        buffer_pages: int,
        k: int,
        workers: int,
        range_spec,
    ) -> PlanDecision:
        if shape_p is None or shape_q is None:
            return PlanDecision(
                algorithm="clipped" if range_spec is not None else FALLBACK,
                reason="cost model unavailable for this pair; "
                       "defaulting to the best general algorithm",
                estimated_accesses=math.inf,
                estimated_distance=math.nan,
                buffer_pages=buffer_pages,
                height_p=shape_p.height if shape_p else 0,
                height_q=shape_q.height if shape_q else 0,
                k=k,
            )
        height_p = shape_p.height
        height_q = shape_q.height
        if height_p == 1 and height_q == 1:
            return PlanDecision(
                algorithm="exh",
                reason="both trees are a single leaf; one leaf-pair "
                       "scan, ordering machinery is overhead",
                estimated_accesses=2.0,
                estimated_distance=math.nan,
                buffer_pages=buffer_pages,
                height_p=height_p,
                height_q=height_q,
                k=k,
            )
        distance = estimate_closest_pair_distance(shape_p, shape_q)
        # E[d_K] of a uniform pair population scales like sqrt(K) times
        # the 1-CP distance; the bound a K-CPQ converges to is d_K.
        reach = distance * math.sqrt(k)
        accesses = estimate_cpq_accesses(shape_p, shape_q, t=reach)
        selectivity = None
        if range_spec is not None:
            selectivity = _window_selectivity(shape_p, shape_q, range_spec)
            algorithm, reason = _ranged_choice(selectivity)
        else:
            algorithm, reason = _choice(accesses, buffer_pages)
        granted, speedup = 1, 1.0
        if workers > 1 and ALGORITHM_REGISTRY[algorithm].supports_parallel:
            # Each side reads about half the pages.
            latency = (shape_p.read_latency + shape_q.read_latency) / 2.0
            speedup = (estimate_query_ms(accesses, latency)
                       / estimate_query_ms(accesses, latency, workers))
            if speedup >= PARALLEL_SPEEDUP_MARGIN:
                granted = workers
                reason += (
                    f"; ~{speedup:.1f}x predicted from {workers} workers "
                    f"overlapping {latency * 1000.0:g} ms page reads"
                )
            else:
                speedup = 1.0
        return PlanDecision(
            algorithm=algorithm,
            reason=reason,
            estimated_accesses=accesses,
            estimated_distance=distance,
            buffer_pages=buffer_pages,
            height_p=height_p,
            height_q=height_q,
            k=k,
            workers=granted,
            estimated_speedup=speedup,
            range_selectivity=selectivity,
        )


def _choice(accesses: float, buffer_pages: int) -> Tuple[str, str]:
    """The unconstrained algorithm and its reason."""
    if accesses <= SIM_THRESHOLD:
        return "sim", (
            f"~{accesses:.0f} predicted accesses <= {SIM_THRESHOLD:g}; "
            f"pruning pays, ordering does not"
        )
    if buffer_pages >= accesses:
        return "std", (
            f"buffer of {buffer_pages} pages covers the "
            f"~{accesses:.0f}-access working set; recursive sorted "
            f"descent re-reads for free"
        )
    return "heap", (
        f"~{accesses:.0f} predicted accesses exceed the "
        f"{buffer_pages}-page buffer; global best-first order "
        f"minimises disk I/O"
    )


def _window_selectivity(shape_p: TreeShape, shape_q: TreeShape,
                        range_spec) -> float:
    """Selectivity per constrained side, the largest taken (the side
    admitting more points dominates the traversal's qualifying
    population)."""
    sides = []
    if range_spec.constrains_p:
        sides.append(estimate_range_selectivity(shape_p, range_spec))
    if range_spec.constrains_q:
        sides.append(estimate_range_selectivity(shape_q, range_spec))
    return max(sides) if sides else 1.0


def _ranged_choice(selectivity: float) -> Tuple[str, str]:
    """The specialized range algorithm and its reason."""
    if selectivity <= RCP_SELECTIVITY_THRESHOLD:
        return "rcp", (
            f"window covers ~{selectivity:.1%} of the workspace "
            f"(<= {RCP_SELECTIVITY_THRESHOLD:.0%}); small candidate "
            f"lists memoize well"
        )
    return "clipped", (
        f"window covers ~{selectivity:.1%} of the workspace "
        f"(> {RCP_SELECTIVITY_THRESHOLD:.0%}); clipped best-first "
        f"traversal without memoization"
    )

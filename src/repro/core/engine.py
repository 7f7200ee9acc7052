"""Shared machinery of the CPQ algorithms.

The four pruning algorithms of the paper differ only in *policy*:

===========  =======  ==================  ==========
algorithm    prunes   tightens T from     processing order
===========  =======  ==================  ==========
NAIVE        no       --                  natural
EXH          yes      found pairs only    natural
SIM          yes      + MINMAXDIST        natural
STD          yes      + MINMAXDIST        ascending MINMINDIST (+ ties)
HEAP         yes      + MINMAXDIST        global ascending MINMINDIST
===========  =======  ==================  ==========

This module implements the shared mechanics: the query context (K-heap,
pruning bound ``T``, statistics), vectorised leaf-pair scanning,
candidate generation with the height strategies of Section 3.7, the
K > 1 bound update from MAXMAXDIST (Section 3.8), and the recursive
driver parameterised by :class:`CPQOptions`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.height import (
    EXPAND_BOTH,
    EXPAND_P,
    EXPAND_Q,
    FIX_AT_ROOT,
    expansion,
    validate_strategy,
)
from repro.core.kheap import KHeap
from repro.core.result import ClosestPair, CPQResult
from repro.core.ties import CandidateBoxes, TieBreak
from repro.geometry.minkowski import EUCLIDEAN, MinkowskiMetric
from repro.geometry.vectorized import (
    node_pair_bounds,
    pairwise_mindist,
    pairwise_point_distances,
)
from repro.obs.trace import NULL_TRACER, Span
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.stats import QueryStats


@dataclass
class CPQOptions:
    """Policy knobs distinguishing the algorithms."""

    #: Skip candidate pairs with MINMINDIST > T (all but NAIVE).
    prune: bool = True
    #: Tighten T from MINMAXDIST (K = 1) / MAXMAXDIST (K > 1) before
    #: descending (SIM, STD, HEAP).
    update_bound: bool = True
    #: Process candidates in ascending MINMINDIST order (STD, HEAP).
    sort: bool = False
    #: Tie-break chain for equal MINMINDIST (STD, HEAP); None keeps the
    #: stable sort / insertion order.
    tie_break: Optional[TieBreak] = None
    #: Height strategy for trees of different heights (Section 3.7).
    height_strategy: str = FIX_AT_ROOT
    #: For K > 1: use the MAXMAXDIST accumulation bound (the paper's
    #: "alternative, although more complicated, modification").
    maxmax_k_pruning: bool = True
    #: For range-constrained queries: evaluate MINMINDIST on the
    #: intersection of each constrained-side MBR with the query window
    #: instead of the raw MBR (the CLIPPED algorithm).  A clipped box
    #: bounds exactly the in-window points below it, so its MINMINDIST
    #: is a *tighter* valid lower bound on qualifying pair distances.
    clip_mindist: bool = False

    def __post_init__(self) -> None:
        validate_strategy(self.height_strategy)


class CPQContext:
    """Mutable state of one query execution."""

    def __init__(
        self,
        tree_p: RTree,
        tree_q: RTree,
        k: int,
        metric: MinkowskiMetric = EUCLIDEAN,
        cancel_check: Optional[Callable[[], None]] = None,
        tracer=None,
        roots=None,
        root_areas=None,
        range_spec=None,
        color_spec=None,
    ):
        if tree_p.dimension != tree_q.dimension:
            raise ValueError("trees index points of different dimensions")
        self.tree_p = tree_p
        self.tree_q = tree_q
        self.k = k
        self.metric = metric
        #: Query-family constraints (:mod:`repro.core.constraints`).
        #: When either is set the traversal filters qualifying pairs at
        #: the leaves and *suppresses* the MINMAXDIST / MAXMAXDIST
        #: bound updates -- the point those bounds guarantee may be
        #: out-of-window or wrong-colored, so only the K-heap threshold
        #: (built from qualifying pairs) may tighten T.  MINMINDIST
        #: pruning stays valid: it lower-bounds every pair, qualifying
        #: ones included.
        self.range_spec = range_spec
        self.color_spec = color_spec
        self.constrained = range_spec is not None or color_spec is not None
        if range_spec is not None:
            if range_spec.dimension != tree_p.dimension:
                raise ValueError(
                    "range window dimension does not match the trees"
                )
            self._range_lo = np.array(range_spec.lo, dtype=float)
            self._range_hi = np.array(range_spec.hi, dtype=float)
        #: Cooperative cancellation: called once per visited node pair;
        #: raising from it (e.g. a service deadline) aborts the
        #: traversal, leaving trees and buffers consistent.
        self.cancel_check = cancel_check
        #: Observability hook (:mod:`repro.obs`); the no-op tracer by
        #: default, so hot paths pay one ``enabled`` test at most.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The open ``traverse`` span while one exists (see
        #: :func:`traced_traversal`); counters go through
        #: :meth:`trace_add`.
        self.trace_span: Optional[Span] = None
        if self.tracer.enabled:
            # Baselines for the per-tree I/O delta spans, captured
            # *before* the root reads below so they are attributed too.
            self._trace_io_base = (
                tree_p.stats.snapshot(), tree_q.stats.snapshot()
            )
        self.kheap = KHeap(k)
        #: Minimum node occupancy of each tree (Section 3.8 counts).
        self.min_entries = (tree_p.min_entries, tree_q.min_entries)
        #: Extra upper bound on the K-th best distance, tightened from
        #: MINMAXDIST / MAXMAXDIST (independent of the K-heap content).
        self.bound = math.inf
        self.stats = QueryStats()
        # Read each root exactly once; algorithms reuse these handles so
        # context construction plus execution costs two root I/Os total.
        # ``roots`` lets the parallel executor point worker contexts at
        # already-read nodes (partition roots) without re-paying the
        # root I/O; ``root_areas`` then pins the tie-key normalisation
        # areas to the *tree* roots so tie keys match the serial path.
        if roots is not None:
            self.root_p, self.root_q = roots
        else:
            self.root_p = tree_p.read_root()
            self.root_q = tree_q.read_root()
        if root_areas is not None:
            self.root_area_p, self.root_area_q = root_areas
        else:
            self.root_area_p = (
                self.root_p.mbr().area() if self.root_p else 1.0
            )
            self.root_area_q = (
                self.root_q.mbr().area() if self.root_q else 1.0
            )

    @classmethod
    def for_request(cls, tree_p: RTree, tree_q: RTree, request,
                    **hooks) -> "CPQContext":
        """The context for one :class:`~repro.core.api.CPQRequest`'s
        K, metric and constraints; ``hooks`` are the other keyword
        arguments."""
        return cls(tree_p, tree_q, request.k, request.metric,
                   range_spec=request.range, color_spec=request.colors,
                   **hooks)

    @property
    def t(self) -> float:
        """The pruning bound T: best of the K-heap top and the metric
        bound."""
        return min(self.kheap.threshold, self.bound)

    def check_cancelled(self) -> None:
        """Run the caller-supplied cancellation probe, if any."""
        if self.cancel_check is not None:
            self.cancel_check()

    def trace_add(self, key: str, amount: float = 1) -> None:
        """Accumulate a counter on the open traversal span, if any.

        Callers guard with ``ctx.tracer.enabled`` so the untraced path
        never reaches this method.
        """
        if self.trace_span is not None:
            self.trace_span.add(key, amount)

    def update_bound(self, value: float) -> None:
        if value < self.bound:
            self.bound = value

    def offer(self, entry_p, entry_q, distance: float) -> None:
        self.kheap.offer(
            ClosestPair(
                distance=float(distance),
                p=entry_p.point,
                q=entry_q.point,
                p_oid=entry_p.oid,
                q_oid=entry_q.oid,
            )
        )

    def result(self, algorithm: str) -> CPQResult:
        self.stats.merge_io(self.tree_p.stats, self.tree_q.stats)
        return CPQResult(
            pairs=self.kheap.sorted_pairs(),
            stats=self.stats,
            algorithm=algorithm,
            k=self.k,
        )


# ---------------------------------------------------------------------------
# Traversal tracing (repro.obs)
# ---------------------------------------------------------------------------

def _finish_io_span(tracer, label: str, io, collector,
                    timed: bool) -> None:
    """Attach one ``io.<label>`` leaf carrying the tree's I/O delta.

    ``disk_reads`` / ``buffer_hits`` come from ``io``, the tree's
    :class:`~repro.storage.stats.IOStats` delta across the traversal
    (exact when the query has the trees to itself); ``observed_*`` and
    ``distinct_pages`` come from the buffer observer and are exact for
    this thread even under concurrency.  ``timed`` marks the counters
    as depending on thread timing.
    """
    with tracer.span(label) as child:
        annotate = child.annotate_timed if timed else child.annotate
        annotate(
            disk_reads=io.disk_reads,
            buffer_hits=io.buffer_hits,
            reads=io.reads,
        )
        # Resilience counters are annotated only when they moved, so
        # fault-free traces (and the explain golden output) stay
        # byte-stable while faulted runs show their retries.
        if io.read_retries:
            annotate(read_retries=io.read_retries)
        if io.corrupt_reads:
            annotate(corrupt_reads=io.corrupt_reads)
        if collector is not None and collector.reads:
            annotate(
                observed_reads=collector.reads,
                observed_disk_reads=collector.disk_reads,
                distinct_pages=collector.distinct_pages,
            )
    child.duration_ms = 0.0  # accounting leaf, not a timed phase


@contextmanager
def traced_traversal(ctx: CPQContext, algorithm: str, *,
                     timed: bool = False, **attrs):
    """Wrap one algorithm execution in a ``traverse`` span.

    Opens the span (child of whatever span is current on this thread,
    e.g. a service ``request``), installs the buffer observers and
    per-thread I/O collectors, and on exit attaches the ``io.p`` /
    ``io.q`` leaf spans whose ``disk_reads`` sum to the query's
    :class:`~repro.storage.stats.IOStats` delta, plus the traversal
    counter rollup.  ``timed`` marks the rollup and I/O counters as
    depending on thread timing (parallel workers prune by a shared,
    racing bound).  A no-op (single ``enabled`` test) when ``ctx``
    carries the null tracer.
    """
    tracer = ctx.tracer
    if not tracer.enabled:
        yield None
        return
    base_p, base_q = ctx._trace_io_base
    tracer.watch_buffer(ctx.tree_p.file.buffer, "p")
    tracer.watch_buffer(ctx.tree_q.file.buffer, "q")
    try:
        with tracer.span("traverse", algorithm=algorithm, k=ctx.k,
                         **attrs) as span:
            ctx.trace_span = span
            collectors = {"p": None, "q": None}
            try:
                with tracer.collect_io(("p", "q")) as collectors:
                    yield span
            finally:
                ctx.trace_span = None
                (span.annotate_timed if timed else span.annotate)(
                    node_pairs_visited=ctx.stats.node_pairs_visited,
                    distance_computations=ctx.stats.distance_computations,
                )
                _finish_io_span(tracer, "io.p", ctx.tree_p.stats.since(base_p),
                                collectors["p"], timed)
                _finish_io_span(tracer, "io.q", ctx.tree_q.stats.since(base_q),
                                collectors["q"], timed)
    finally:
        # Without this, repeated queries on the same trees leak the
        # buffers' on_read observers past the traversal that set them.
        tracer.unwatch_buffer(ctx.tree_p.file.buffer)
        tracer.unwatch_buffer(ctx.tree_q.file.buffer)


# ---------------------------------------------------------------------------
# Leaf-pair scanning (step CP3)
# ---------------------------------------------------------------------------

def _qualifying_mask(
    ctx: CPQContext, leaf_p: Node, leaf_q: Node
) -> np.ndarray:
    """Boolean (|P|, |Q|) mask of point pairs the constraints admit.

    Range containment is evaluated per side from the leaves' point
    arrays; colors derive from oids (``oid % modulus``), so the mask is
    a pure function of data already on the pages.
    """
    mask_p = np.ones(len(leaf_p.entries), dtype=bool)
    mask_q = np.ones(len(leaf_q.entries), dtype=bool)
    spec = ctx.range_spec
    if spec is not None:
        if spec.constrains_p:
            pts = leaf_p.points_array()
            mask_p &= np.all(
                (pts >= ctx._range_lo) & (pts <= ctx._range_hi), axis=1
            )
        if spec.constrains_q:
            pts = leaf_q.points_array()
            mask_q &= np.all(
                (pts >= ctx._range_lo) & (pts <= ctx._range_hi), axis=1
            )
    mask = mask_p[:, None] & mask_q[None, :]
    colors = ctx.color_spec
    if colors is not None:
        color_p = np.array(
            [e.oid for e in leaf_p.entries], dtype=np.int64
        ) % colors.modulus
        color_q = np.array(
            [e.oid for e in leaf_q.entries], dtype=np.int64
        ) % colors.modulus
        if colors.colors_p is not None:
            mask &= np.isin(
                color_p, np.array(colors.colors_p, dtype=np.int64)
            )[:, None]
        if colors.colors_q is not None:
            mask &= np.isin(
                color_q, np.array(colors.colors_q, dtype=np.int64)
            )[None, :]
        if colors.distinct:
            mask &= color_p[:, None] != color_q[None, :]
    return mask


def scan_leaf_pair(
    ctx: CPQContext,
    leaf_p: Node,
    leaf_q: Node,
    distances: Optional[np.ndarray] = None,
) -> None:
    """Compute all point-pair distances of two leaves and update the
    K-heap (step CP3 of every algorithm).

    ``distances`` is the pair's matrix when a :class:`LeafRun` computed
    it already.

    Constrained queries AND a qualifying mask into the selection, so
    only admitted pairs ever reach the K-heap.  (The mask must gate the
    selection itself, not just inflate distances: while T is still
    infinite, ``inf <= inf`` would admit a masked pair.)
    """
    if distances is None:
        distances = pairwise_point_distances(
            leaf_p.points_array(), leaf_q.points_array(), ctx.metric
        )
    ctx.stats.distance_computations += distances.size
    mask = _qualifying_mask(ctx, leaf_p, leaf_q) if ctx.constrained else None
    if ctx.k == 1:
        if mask is not None:
            if not mask.any():
                return
            distances = np.where(mask, distances, np.inf)
        d = float(distances.min())
        if d <= ctx.t and math.isfinite(d):
            # Offer every pair tied at the minimum: the K-heap keeps the
            # canonical one, whatever the entry order inside the leaves.
            rows, cols = np.nonzero(distances == d)
            for i, j in zip(rows.tolist(), cols.tolist()):
                ctx.offer(leaf_p.entries[i], leaf_q.entries[j], d)
        return
    qualifies = distances <= ctx.t
    if mask is not None:
        qualifies &= mask
    rows, cols = qualifies.nonzero()
    if rows.size == 0:
        return
    values = distances[rows, cols]
    # Offer in ascending order so the K-heap threshold tightens fastest.
    order = values.argsort(kind="stable")
    entries_p, entries_q = leaf_p.entries, leaf_q.entries
    for d, r, c in zip(values[order].tolist(), rows[order].tolist(),
                       cols[order].tolist()):
        if d > ctx.t:
            break
        ctx.offer(entries_p[r], entries_q[c], d)


#: Most leaf pairs one :class:`LeafRun` stacks.  A fixed bound, not a
#: tuning knob: it holds a run's temporaries to about 1 MiB at most
#: for 1 KiB-page leaves (200 KiB for the 14-point STR leaves, d = 2).
LEAF_RUN_CAP = 64


class LeafRun:
    """The point-distance matrices of a run of leaf pairs, computed by
    one stacked :func:`pairwise_point_distances` call.

    A run is arithmetic done ahead, never I/O: its nodes come from the
    trees' decoded-node caches (:meth:`RTree.cached_node`), and each
    pair is still visited in serial order, with its own T re-check,
    page reads, cancellation probe and visit count.  A pair's matrix is
    bitwise equal to its per-pair kernel call, so the K-heap sees the
    same offers in the same order.  Pairs a run computed but the
    traversal then prunes cost arithmetic only.
    """

    __slots__ = ("leaves", "distances", "minima")

    def __init__(self, ctx: CPQContext, leaves: List[Tuple[Node, Node]]):
        self.leaves = leaves
        # Ragged leaves are padded with +inf on one side and -inf on
        # the other, so every padded cell is +inf and never a minimum.
        block_p = _stack_columns([p.point_columns() for p, __ in leaves],
                                 math.inf)
        block_q = _stack_columns([q.point_columns() for __, q in leaves],
                                 -math.inf)
        self.distances = pairwise_point_distances(
            block_p.transpose(1, 2, 0), block_q.transpose(1, 2, 0),
            ctx.metric,
        )
        self.minima = self.distances.reshape(len(leaves), -1).min(
            axis=1).tolist()

    @classmethod
    def of(cls, ctx: CPQContext,
           leaves: List[Tuple[Node, Node]]) -> Optional["LeafRun"]:
        """A run over ``leaves``; None for fewer than two pairs, which
        the per-pair kernel serves as cheaply."""
        return cls(ctx, leaves) if len(leaves) > 1 else None

    def scan(self, ctx: CPQContext, index: int, leaf_p: Node,
             leaf_q: Node) -> None:
        """Step CP3 of the visited pair ``(leaf_p, leaf_q)``, the run's
        ``index``-th.  It leaves at once when the pair's minimum exceeds
        T, as no offer could pass.  A pair that is not the node pair
        the run holds there (a cache entry replaced meanwhile) is
        scanned alone."""
        held_p, held_q = self.leaves[index]
        if held_p is not leaf_p or held_q is not leaf_q:
            scan_leaf_pair(ctx, leaf_p, leaf_q)
            return
        n, m = len(leaf_p.entries), len(leaf_q.entries)
        if self.minima[index] > ctx.t:
            ctx.stats.distance_computations += n * m
            return
        scan_leaf_pair(ctx, leaf_p, leaf_q, self.distances[index, :n, :m])


def _stack_columns(columns: List[np.ndarray], fill: float) -> np.ndarray:
    """Stack ``(k, n_i)`` coordinate arrays into one ``(k, r, n)``
    block, padding shorter ones with ``fill`` up to the longest."""
    sizes = [array.shape[1] for array in columns]
    width = max(sizes)
    if min(sizes) == width:
        flat = np.concatenate(columns, axis=1)
        return flat.reshape(len(flat), len(columns), width)
    block = np.full((len(columns[0]), len(columns), width), fill)
    for i, (array, size) in enumerate(zip(columns, sizes)):
        block[:, i, :size] = array
    return block


# ---------------------------------------------------------------------------
# Candidate generation (steps CP2 / CP2.1)
# ---------------------------------------------------------------------------

@dataclass
class CandidateSet:
    """The surviving child pairs of one visited node pair.

    ``idx_p`` / ``idx_q`` address entries of the expanded side(s); a
    fixed (unexpanded) side is represented by index 0 into the visited
    node itself.
    """

    node_p: Node
    node_q: Node
    expand_p: bool
    expand_q: bool
    minmin: np.ndarray  # (n_candidates,)
    idx_p: np.ndarray
    idx_q: np.ndarray
    minmax: Optional[np.ndarray] = None  # same shape, when computed

    def child_nodes(self, ctx: CPQContext, position: int):
        """Read (with I/O accounting) the node pair of one candidate."""
        if self.expand_p:
            entry = self.node_p.entries[int(self.idx_p[position])]
            node_p = ctx.tree_p.read_node(entry.child_id)
        else:
            node_p = self.node_p
        if self.expand_q:
            entry = self.node_q.entries[int(self.idx_q[position])]
            node_q = ctx.tree_q.read_node(entry.child_id)
        else:
            node_q = self.node_q
        return node_p, node_q

    @property
    def leaf_children(self) -> bool:
        """Whether every candidate is a leaf/leaf pair."""
        return (self.node_p.level == int(self.expand_p)
                and self.node_q.level == int(self.expand_q))

    def child_pages(self):
        """Page ids of every candidate's node pair, as two lists."""
        return (
            _child_pages(self.node_p, self.expand_p, self.idx_p),
            _child_pages(self.node_q, self.expand_q, self.idx_q),
        )

    def tie_keys(
        self, ctx: CPQContext, tie_break: TieBreak, positions=None
    ) -> List[tuple]:
        """Tie-break keys of the candidates at ``positions`` (default:
        all), computed for the whole batch at once."""
        select = slice(None) if positions is None else positions
        lo_p, hi_p = _side_arrays(self.node_p, self.expand_p)
        lo_q, hi_q = _side_arrays(self.node_q, self.expand_q)
        return tie_break.keys(CandidateBoxes(
            lo_p, hi_p, self.idx_p[select],
            lo_q, hi_q, self.idx_q[select],
            minmax=None if self.minmax is None else self.minmax[select],
            root_area_p=ctx.root_area_p,
            root_area_q=ctx.root_area_q,
        ))

    def __len__(self) -> int:
        return len(self.minmin)


def _side_arrays(node: Node, expand: bool):
    if expand:
        return node.lo_array(), node.hi_array()
    return node.box_arrays()


def _child_pages(node: Node, expand: bool, idx: np.ndarray) -> List[int]:
    if not expand:
        return [node.page_id] * len(idx)
    entries = node.entries
    return [entries[i].child_id for i in idx.tolist()]


def _clip_side_arrays(ctx: CPQContext, lo, hi, constrained: bool):
    """Clip one side's boxes against the query window.

    Returns ``(lo', hi', infeasible)`` where ``infeasible`` flags boxes
    disjoint from the window -- no qualifying point can lie below them.
    Unconstrained sides pass through with an all-False flag.  Rows
    flagged infeasible may carry inverted bounds; callers must mask
    them out rather than trust distances computed from them.
    """
    if not constrained:
        return lo, hi, np.zeros(len(lo), dtype=bool)
    clipped_lo = np.maximum(lo, ctx._range_lo)
    clipped_hi = np.minimum(hi, ctx._range_hi)
    infeasible = np.any(clipped_lo > clipped_hi, axis=1)
    return clipped_lo, clipped_hi, infeasible


def _guaranteed_points(
    tree: RTree, node: Node, expanded: bool, m: Optional[int] = None
) -> np.ndarray:
    """Minimum number of points under each candidate reference.

    A non-root node at level ``l`` holds at least ``m ** (l + 1)``
    points (minimum occupancy ``m``, by default ``tree.min_entries``,
    compounds per level).  Children of a visited node are never roots;
    a fixed side may be the root, for which only weaker guarantees hold.
    """
    if m is None:
        m = tree.min_entries
    if expanded:
        # children are non-root nodes at level node.level - 1
        return np.full(len(node.entries), m ** node.level, dtype=float)
    if node.page_id == tree.root_id:
        guaranteed = 1 if node.is_leaf else 2 * m ** node.level
    else:
        guaranteed = m ** (node.level + 1)
    return np.array([guaranteed], dtype=float)


def _kcp_bound_from_maxmax(
    minmax: np.ndarray,
    maxmax: np.ndarray,
    counts: np.ndarray,
    k: int,
) -> float:
    """Upper bound on the K-th smallest pair distance (Section 3.8).

    Each candidate MBR pair guarantees one point pair within its
    MINMAXDIST (Inequality 2) and ``counts`` point pairs within its
    MAXMAXDIST (Inequality 1, right).  The point-pair populations of
    distinct candidates are disjoint, so sorting the guarantees by
    distance and accumulating counts until K are covered yields a valid
    bound on the K-th best distance.

    Values up to any cut are a prefix of that order, so a prefix that
    covers K gives the same value; the cut, the j-th smallest
    MAXMAXDIST with j candidates of the lightest weight covering K,
    usually leaves a few dozen of the 2 x 441 values to sort.
    """
    values = np.concatenate([minmax, maxmax])
    weights = np.concatenate(
        [np.ones_like(minmax), np.maximum(counts - 1.0, 0.0)]
    )
    j = -(-k // int(1 + weights[len(minmax):].min(initial=k)))
    if j <= len(maxmax):
        head = values <= np.partition(maxmax, j - 1)[j - 1]
        bound = _first_covering(values[head], weights[head], k)
        if bound < math.inf:
            return bound
    return _first_covering(values, weights, k)


def _first_covering(values: np.ndarray, weights: np.ndarray, k: int) -> float:
    """The value at which the weights, accumulated in ascending stable
    order of ``values``, first reach ``k`` (infinity if they never do)."""
    order = np.argsort(values, kind="stable")
    position = int(np.searchsorted(np.cumsum(weights[order]), k))
    if position >= len(values):
        return math.inf
    return float(values[order[position]])


def generate_candidates(
    ctx: CPQContext, node_p: Node, node_q: Node, options: CPQOptions
) -> CandidateSet:
    """Steps CP2/CP2.1: form child MBR pairs, tighten T, prune by
    MINMINDIST."""
    side = expansion(node_p, node_q, options.height_strategy)
    expand_p = side in (EXPAND_BOTH, EXPAND_P)
    expand_q = side in (EXPAND_BOTH, EXPAND_Q)
    spec = ctx.range_spec if ctx.constrained else None
    infeasible = None
    lo_p, hi_p = _side_arrays(node_p, expand_p)
    lo_q, hi_q = _side_arrays(node_q, expand_q)
    # Boxes MINMINDIST is evaluated on: raw, or window-clipped (CLIPPED).
    boxes_p, boxes_q = (lo_p, hi_p), (lo_q, hi_q)
    if spec is not None and options.prune:
        clip_lo_p, clip_hi_p, bad_p = _clip_side_arrays(
            ctx, lo_p, hi_p, spec.constrains_p
        )
        clip_lo_q, clip_hi_q, bad_q = _clip_side_arrays(
            ctx, lo_q, hi_q, spec.constrains_q
        )
        infeasible = bad_p[:, None] | bad_q[None, :]
        if options.clip_mindist:
            boxes_p = (clip_lo_p, clip_hi_p)
            boxes_q = (clip_lo_q, clip_hi_q)
    minmax_matrix = None
    # Constrained queries must not tighten T from MINMAXDIST /
    # MAXMAXDIST: the point pair those bounds guarantee may lie outside
    # the window or carry an inadmissible color, so treating them as
    # upper bounds on the K-th *qualifying* distance would prune real
    # answers.  Only the K-heap threshold (built from qualifying pairs)
    # tightens T; MINMINDIST pruning below stays valid unchanged.
    if options.update_bound and not ctx.constrained:
        minmin, minmax_matrix, maxmax = node_pair_bounds(
            lo_p, hi_p, lo_q, hi_q, ctx.metric,
            maxmax=ctx.k > 1 and options.maxmax_k_pruning,
        )
        if ctx.k == 1:
            ctx.update_bound(float(minmax_matrix.min()))
        elif maxmax is not None:
            m_p, m_q = ctx.min_entries
            counts = np.outer(
                _guaranteed_points(ctx.tree_p, node_p, expand_p, m_p),
                _guaranteed_points(ctx.tree_q, node_q, expand_q, m_q),
            )
            ctx.update_bound(
                _kcp_bound_from_maxmax(
                    minmax_matrix.ravel(),
                    maxmax.ravel(),
                    counts.ravel(),
                    ctx.k,
                )
            )
    else:
        minmin = pairwise_mindist(*boxes_p, *boxes_q, ctx.metric)

    flat = minmin.ravel()
    columns = minmin.shape[1]
    if options.prune:
        within = flat <= ctx.t
        if infeasible is not None:
            # Subtrees disjoint from the window hold no qualifying
            # point; drop them outright (an explicit mask, because
            # ``inf <= inf`` would keep them while T is infinite).
            within &= ~infeasible.ravel()
        keep = np.nonzero(within)[0]
    else:
        keep = np.arange(flat.size)
    if ctx.tracer.enabled:
        ctx.trace_add("candidates_generated", int(flat.size))
        ctx.trace_add("pairs_pruned_minmin", int(flat.size - keep.size))
    return CandidateSet(
        node_p=node_p,
        node_q=node_q,
        expand_p=expand_p,
        expand_q=expand_q,
        minmin=flat[keep],
        idx_p=keep // columns,
        idx_q=keep % columns,
        minmax=minmax_matrix.ravel()[keep] if minmax_matrix is not None else None,
    )


def order_candidates(
    ctx: CPQContext, candidates: CandidateSet, options: CPQOptions
) -> np.ndarray:
    """Processing order of a candidate set.

    Natural (index) order unless ``options.sort``; then a stable
    mergesort on MINMINDIST (the paper found MergeSort best), with the
    tie-break chain applied inside runs of equal MINMINDIST only --
    tie keys are comparatively expensive and ties are what they exist
    for.
    """
    if not options.sort:
        return np.arange(len(candidates))
    order = np.argsort(candidates.minmin, kind="stable")
    if ctx.tracer.enabled:
        ctx.trace_add("sorts", 1)
        ctx.trace_add("sorted_candidates", len(order))
    if options.tie_break is None or len(order) < 2:
        return order
    values = candidates.minmin[order]
    tied = values[1:] == values[:-1]
    if not tied.any():
        return order
    # Only positions inside runs of equal MINMINDIST get tie keys; a
    # stable sort on (MINMINDIST, key) then reorders each run alone.
    in_run = np.concatenate(([False], tied)) | np.concatenate((tied, [False]))
    positions = order[in_run]
    if ctx.tracer.enabled:
        ctx.trace_add("tie_break_keys", len(positions))
    keys = dict(zip(
        positions.tolist(),
        candidates.tie_keys(ctx, options.tie_break, positions),
    ))
    minmin = candidates.minmin.tolist()
    return np.array(sorted(
        order.tolist(), key=lambda pos: (minmin[pos], keys.get(pos, ()))
    ), dtype=int)


# ---------------------------------------------------------------------------
# Recursive driver (NAIVE, EXH, SIM, STD)
# ---------------------------------------------------------------------------

def run_recursive(
    ctx: CPQContext,
    options: CPQOptions,
    algorithm: str,
    span_attrs: Optional[dict] = None,
) -> CPQResult:
    """Execute a recursive CPQ algorithm configured by ``options``.

    ``span_attrs`` are extra annotations the algorithm module wants on
    the ``traverse`` span (tie-break chain, height strategy, ...);
    ignored when ``ctx`` carries the no-op tracer.
    """
    if ctx.root_p is None or ctx.root_q is None:
        return ctx.result(algorithm)
    with traced_traversal(ctx, algorithm, **(span_attrs or {})):
        _visit(ctx, ctx.root_p, ctx.root_q, options)
    return ctx.result(algorithm)


def _visit(
    ctx: CPQContext,
    node_p: Node,
    node_q: Node,
    options: CPQOptions,
    run: Optional[LeafRun] = None,
    index: Optional[int] = None,
) -> None:
    ctx.check_cancelled()
    ctx.stats.node_pairs_visited += 1
    if node_p.is_leaf and node_q.is_leaf:
        if index is None:
            scan_leaf_pair(ctx, node_p, node_q)
        else:
            run.scan(ctx, index, node_p, node_q)
        return
    candidates = generate_candidates(ctx, node_p, node_q, options)
    order = order_candidates(ctx, candidates, options).tolist()
    minmin = candidates.minmin.tolist()
    leaf_children = candidates.leaf_children
    run, slots, run_end = None, {}, 0
    for i, position in enumerate(order):
        # T may have tightened since generation; re-check before paying
        # the I/O of the descent.
        if options.prune:
            if minmin[position] > ctx.t:
                if options.sort:
                    if ctx.tracer.enabled:
                        ctx.trace_add("pairs_repruned", len(order) - i)
                    break  # sorted ascending: the rest are no better
                if ctx.tracer.enabled:
                    ctx.trace_add("pairs_repruned", 1)
                continue
        child_p, child_q = candidates.child_nodes(ctx, position)
        if leaf_children and i >= run_end:
            run, slots, run_end = _candidate_run(
                ctx, candidates, order, minmin, i, options)
        _visit(ctx, child_p, child_q, options, run, slots.get(i))


def _candidate_run(
    ctx: CPQContext,
    candidates: CandidateSet,
    order: List[int],
    minmin: List[float],
    start: int,
    options: CPQOptions,
) -> Tuple[Optional[LeafRun], Dict[int, int], int]:
    """The next :class:`LeafRun` over leaf-pair candidates, from
    processing step ``start`` on.

    Takes, in processing order, up to :data:`LEAF_RUN_CAP` candidates
    that pass MINMINDIST <= T now (sorted order stops at the first that
    fails) and whose nodes are decoded.  Returns the run (None when it
    would hold fewer than two pairs), a map from processing step to
    index in the run, and the first step the run did not consider.
    """
    t = ctx.t
    pages_p, pages_q = candidates.child_pages()
    cached_p, cached_q = ctx.tree_p.cached_node, ctx.tree_q.cached_node
    leaves: List[Tuple[Node, Node]] = []
    slots: Dict[int, int] = {}
    step = start
    while step < len(order) and len(leaves) < LEAF_RUN_CAP:
        position = order[step]
        if options.prune and minmin[position] > t:
            if options.sort:
                break
            step += 1
            continue
        leaf_p = cached_p(pages_p[position])
        leaf_q = cached_q(pages_q[position])
        if leaf_p is not None and leaf_q is not None:
            slots[step] = len(leaves)
            leaves.append((leaf_p, leaf_q))
        step += 1
    run = LeafRun.of(ctx, leaves)
    return run, (slots if run is not None else {}), step

"""The Simple recursive algorithm, SIM (Section 3.3).

Improves EXH by tightening ``T`` as early as possible using
Inequality 2: when a pair of internal nodes is visited, the minimum
MINMAXDIST over all child MBR pairs bounds the distance of at least
one point pair, so ``T`` can shrink before any leaf is reached.

For K > 1 Inequality 2 does not bound K pairs; following Section 3.8
the implementation instead accumulates MAXMAXDIST guarantees (the
paper's "alternative ... modification (used in the implementation of
the K-CP versions)").
"""

from __future__ import annotations

from repro.core.engine import CPQContext, CPQOptions, run_recursive
from repro.core.height import FIX_AT_ROOT
from repro.core.result import CPQResult

NAME = "SIM"


def simple(
    ctx: CPQContext,
    height_strategy: str = FIX_AT_ROOT,
    maxmax_pruning: bool = True,
) -> CPQResult:
    """Run the Simple recursive algorithm on a prepared query context.

    ``maxmax_pruning`` toggles the Section 3.8 MAXMAXDIST accumulation
    bound for K > 1 (off = the simple K-heap-threshold modification).
    """
    options = CPQOptions(
        prune=True,
        update_bound=True,
        sort=False,
        height_strategy=height_strategy,
        maxmax_k_pruning=maxmax_pruning,
    )
    return run_recursive(
        ctx, options, NAME,
        span_attrs={
            "height_strategy": height_strategy,
            "maxmax_k_pruning": maxmax_pruning,
        } if ctx.tracer.enabled else None,
    )

"""Steady-state workload experiment (beyond the paper).

The paper measures cold-cache queries (buffers reset per query).  A
production system answers *streams* of queries against warm buffers;
this experiment runs a batch of K-CPQ queries over rotating query
regions without resetting the buffer, reporting amortised disk
accesses per query.  The shape to expect: the first query pays the
cold cost; subsequent queries amortise the shared upper tree levels,
and the effect grows with the buffer.
"""

import pytest

from repro.core import CPQRequest, k_closest_pairs
from repro.datasets import UNIT_WORKSPACE, Workspace, uniform_points
from repro.experiments.report import Table
from repro.rtree.bulk import bulk_load

N = 10_000
QUERIES = 20


def test_steady_state_workload(benchmark):
    tree_p = bulk_load(uniform_points(N, seed=81))

    # Rotating partner sets: small patches sweeping across P's space.
    partners = []
    for i in range(QUERIES):
        x = (i % 5) * 0.2
        y = (i // 5 % 4) * 0.25
        patch = Workspace(x, y, x + 0.2, y + 0.25)
        partners.append(
            bulk_load(uniform_points(400, patch, seed=90 + i))
        )

    def run():
        table = Table(
            title=(
                f"Steady state: {QUERIES} K-CPQ queries, warm vs cold "
                f"buffers (P = {N} points)"
            ),
            columns=("buffer_pages", "mode", "total_accesses",
                     "per_query"),
            notes=(
                "Warm buffers amortise the shared upper levels of P's "
                "tree across the query stream."
            ),
        )
        for buffer_pages in (0, 16, 64, 256):
            for warm in (False, True):
                tree_p.file.set_buffer_capacity(buffer_pages // 2)
                tree_p.file.reset_for_query()
                total = 0
                for tree_q in partners:
                    tree_q.file.set_buffer_capacity(buffer_pages // 2)
                    tree_q.file.reset_for_query()
                    if not warm:
                        tree_p.file.reset_for_query()
                    # reset_stats=False keeps P's buffer warm across
                    # the stream; the result counts this query's reads.
                    result = k_closest_pairs(
                        tree_p,
                        tree_q,
                        request=CPQRequest(
                            k=10,
                            algorithm="std",
                            reset_stats=False,
                        ),
                    )
                    total += result.stats.disk_accesses
                table.add(
                    buffer_pages,
                    "warm" if warm else "cold",
                    total,
                    round(total / QUERIES, 1),
                )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(table.render())
    # With any real buffer, the warm stream must not cost more than
    # the cold one; with no buffer the two coincide.
    for buffer_pages in (16, 64, 256):
        cold = table.value("total_accesses", buffer_pages=buffer_pages,
                           mode="cold")
        warm = table.value("total_accesses", buffer_pages=buffer_pages,
                           mode="warm")
        assert warm <= cold
    assert table.value(
        "total_accesses", buffer_pages=0, mode="warm"
    ) == table.value("total_accesses", buffer_pages=0, mode="cold")

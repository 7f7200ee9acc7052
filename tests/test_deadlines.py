"""Every registered algorithm honours the cancellation probe.

The probe is the one way a deadline or a shutdown reaches a running
query, so a runner that never calls it returns a full answer long after
its caller gave up.  The registry-wide test covers entries added later
too.
"""

import pytest

from repro.core import ALGORITHM_REGISTRY, CPQRequest, k_closest_pairs
from repro.datasets import uniform_points
from repro.errors import DeadlineExceeded
from repro.rtree.bulk import bulk_load
from repro.service import CPQRequest as ServiceRequest
from repro.service import STATUS_DEADLINE, QueryService


class _Cancelled(Exception):
    pass


def _cancel():
    raise _Cancelled()


@pytest.fixture(scope="module")
def trees():
    return (bulk_load(uniform_points(600, seed=31)),
            bulk_load(uniform_points(500, seed=32)))


@pytest.fixture(scope="module")
def large_trees():
    return (bulk_load(uniform_points(20_000, seed=33)),
            bulk_load(uniform_points(20_000, seed=34)))


def _sides(algorithm, trees):
    tree_p, tree_q = trees
    return (tree_p, tree_p) if algorithm == "self" else (tree_p, tree_q)


def _request(algorithm, k=5, **fields):
    if algorithm == "rcp":
        fields["range"] = ((0.1, 0.1), (0.9, 0.9))
    return CPQRequest(k=k, algorithm=algorithm, **fields)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_REGISTRY))
def test_raising_probe_aborts_the_query(algorithm, trees):
    with pytest.raises(_Cancelled):
        k_closest_pairs(*_sides(algorithm, trees), _request(algorithm),
                        cancel_check=_cancel)


@pytest.mark.parametrize("algorithm", ["self", "semi", "incremental"])
def test_one_ms_deadline_on_a_large_pair(algorithm, large_trees):
    with pytest.raises(DeadlineExceeded):
        k_closest_pairs(*_sides(algorithm, large_trees),
                        _request(algorithm, k=100, deadline_ms=1))


def test_expired_probe_raises_and_live_probe_passes():
    DeadlineExceeded.probe(float("inf"))()
    with pytest.raises(DeadlineExceeded):
        DeadlineExceeded.probe(float("-inf"))()


def test_service_semi_deadline(large_trees):
    service = QueryService(workers=1, cache_size=0)
    service.register_pair("pair", *large_trees)
    try:
        response = service.execute(ServiceRequest(
            pair="pair", algorithm="semi", deadline_ms=1, use_cache=False,
        ))
    finally:
        service.close()
    assert response.status == STATUS_DEADLINE

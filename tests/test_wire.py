"""Round-trip guarantees of the versioned JSON wire format.

Every request kind and every response shape must survive
encode -> JSON bytes -> decode with ``==`` equality on all fields --
floats included (shortest-round-trip repr), ``stats.extra`` included,
failure statuses and resilience flags included.  Envelope violations
(wrong version, unknown op, malformed JSON) must raise ``WireError``,
never return partial objects.
"""

import json
import math

import pytest

from repro.core.result import ClosestPair, CPQResult
from repro.net import wire
from repro.rtree.entries import LeafEntry
from repro.service import (
    CPQRequest,
    KNNRequest,
    PlanDecision,
    QueryResponse,
    RangeRequest,
)
from repro.storage.stats import QueryStats


def _roundtrip_request(request):
    return wire.loads_request(wire.dumps_request(request))


def _roundtrip_response(response):
    return wire.loads_response(wire.dumps_response(response))


class TestRequestRoundTrip:
    def test_cpq_all_fields(self):
        request = CPQRequest(
            pair="counties-vs-rivers",
            k=25,
            algorithm="heap",
            deadline_ms=1500.0,
            use_cache=False,
            height_strategy="fix-at-leaves",
            tie_break="distance,p_oid,q_oid",
            maxmax_pruning=False,
            workers=4,
        )
        decoded = _roundtrip_request(request)
        assert decoded == request

    def test_cpq_defaults(self):
        decoded = _roundtrip_request(CPQRequest(pair="default"))
        assert decoded == CPQRequest(pair="default")

    def test_knn(self):
        request = KNNRequest(
            pair="p-and-q", point=(0.125, 7.75), k=9, side="q",
            deadline_ms=50.0, use_cache=False,
        )
        assert _roundtrip_request(request) == request

    def test_range(self):
        request = RangeRequest(
            pair="default", lo=(0.0, -1.5), hi=(2.25, 3.0), side="p",
        )
        assert _roundtrip_request(request) == request

    def test_float_exactness(self):
        # 0.1 has no finite binary expansion; the wire must still
        # reproduce the exact double (shortest-repr JSON round-trip).
        request = KNNRequest(pair="default", point=(0.1, 1e-17), k=1)
        assert _roundtrip_request(request).point == (0.1, 1e-17)

    def test_minimal_envelope_fills_defaults(self):
        decoded = wire.decode_request({"v": wire.WIRE_VERSION})
        assert isinstance(decoded, CPQRequest)
        assert decoded.pair == "default"
        assert decoded.k == 1

    def test_wrong_version_rejected(self):
        with pytest.raises(wire.WireError, match="version"):
            wire.decode_request({"v": 99, "op": "cpq"})

    def test_missing_version_rejected(self):
        with pytest.raises(wire.WireError, match="version"):
            wire.decode_request({"op": "cpq", "k": 3})

    def test_unknown_op_rejected(self):
        with pytest.raises(wire.WireError, match="unknown op"):
            wire.decode_request({"v": wire.WIRE_VERSION, "op": "drop"})

    def test_non_object_rejected(self):
        with pytest.raises(wire.WireError, match="object"):
            wire.decode_request([1, 2, 3])

    def test_malformed_body_rejected(self):
        with pytest.raises(wire.WireError, match="bad 'knn' request"):
            # knn without its required point
            wire.decode_request({"v": wire.WIRE_VERSION, "op": "knn"})

    def test_invalid_json_bytes_rejected(self):
        with pytest.raises(wire.WireError, match="JSON"):
            wire.loads_request(b"{not json")

    @pytest.mark.parametrize("version", sorted(wire.ACCEPTED_VERSIONS))
    def test_retired_fields_ignored(self, version):
        # Older clients still send the retired execution knobs; they
        # decode like any unknown key, to the same request as without.
        envelope = {"v": version, "op": "cpq", "pair": "p", "k": 4,
                    "algorithm": "heap", "workers": 2}
        legacy = dict(envelope, use_vectorized=False,
                      parallel_mode="process")
        assert wire.decode_request(legacy) == wire.decode_request(envelope)

    def test_encoded_envelope_omits_retired_fields(self):
        envelope = wire.encode_request(CPQRequest(pair="default"))
        assert "use_vectorized" not in envelope
        assert "parallel_mode" not in envelope

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_range_rejected(self, bad):
        body = ('{"v": 2, "op": "cpq", "algorithm": "heap", "range": '
                '{"lo": [0.0, %s], "hi": [1.0, 1.0]}}' % bad)
        with pytest.raises(wire.WireError, match="finite"):
            wire.loads_request(body.encode())


def _cpq_result():
    stats = QueryStats(
        disk_accesses=123,
        buffer_hits=456,
        distance_computations=789,
        node_pairs_visited=42,
        max_queue_size=17,
        queue_inserts=99,
        extra={
            "net": {
                "shards": 4,
                "failed_shards": [2],
                "partial": True,
                "shard_io": {"disk_reads": 10, "buffer_hits": 20},
            },
            "parallel": {"mode": "process"},
        },
    )
    pairs = [
        ClosestPair(0.25, (1.0, 2.0), (1.5, 2.0), 7, 11),
        ClosestPair(0.25, (3.0, 4.0), (3.0, 4.25), 8, 12),
        ClosestPair(1.0 / 3.0, (0.1, 0.2), (0.3, 0.4), 9, 13),
    ]
    return CPQResult(pairs=pairs, stats=stats, algorithm="HEAP", k=3)


class TestResponseRoundTrip:
    def test_ok_cpq_full(self):
        response = QueryResponse(
            status="ok",
            kind="cpq",
            result=_cpq_result(),
            algorithm="heap",
            plan=PlanDecision(
                algorithm="heap", reason="buffer fits both trees",
                estimated_accesses=120.5, estimated_distance=0.004,
                buffer_pages=64, height_p=3, height_q=2, k=3,
                workers=2, estimated_speedup=1.8,
            ),
            cached=True,
            stale=True,
            partial=True,
            latency_ms=12.75,
            disk_reads=123,
            buffer_hits=456,
            read_retries=3,
        )
        decoded = _roundtrip_response(response)
        assert decoded.status == "ok"
        assert decoded.kind == "cpq"
        # Pairs: identical values AND order -- the parity contract.
        assert decoded.result.pairs == response.result.pairs
        assert decoded.result.algorithm == "HEAP"
        assert decoded.result.k == 3
        assert decoded.result.stats == response.result.stats
        assert decoded.result.stats.extra["net"]["partial"] is True
        assert decoded.plan == response.plan
        assert decoded.cached and decoded.stale and decoded.partial
        assert decoded.latency_ms == 12.75
        assert decoded.disk_reads == 123
        assert decoded.buffer_hits == 456
        assert decoded.read_retries == 3
        assert decoded.error is None

    def test_knn_response(self):
        response = QueryResponse(
            status="ok", kind="knn",
            result=[
                (0.5, LeafEntry((1.0, 2.0), 3)),
                (math.pi, LeafEntry((4.0, 5.0), 6)),
            ],
            latency_ms=1.5,
        )
        decoded = _roundtrip_response(response)
        assert decoded.result == response.result

    def test_range_response(self):
        response = QueryResponse(
            status="ok", kind="range",
            result=[LeafEntry((0.0, 0.0), 1), LeafEntry((1.0, 1.0), 2)],
        )
        decoded = _roundtrip_response(response)
        assert decoded.result == response.result

    @pytest.mark.parametrize("status", [
        "rejected", "deadline_exceeded", "error", "overloaded",
        "unavailable",
    ])
    def test_failure_statuses(self, status):
        response = QueryResponse(
            status=status, kind="cpq", error="queue over threshold",
            latency_ms=0.25,
        )
        decoded = _roundtrip_response(response)
        assert decoded.status == status
        assert decoded.error == "queue over threshold"
        assert decoded.result is None
        assert decoded.plan is None

    def test_non_json_extra_degrades_to_repr(self):
        # stats.extra is an open dict; opaque values must not break
        # the response -- they travel as their repr.
        result = _cpq_result()
        result.stats.extra["opaque"] = {1, 2}
        encoded = wire.encode_response(
            QueryResponse(status="ok", kind="cpq", result=result)
        )
        payload = json.loads(json.dumps(encoded))  # must be JSON-safe
        assert isinstance(
            payload["result"]["stats"]["extra"]["opaque"], str
        )

    def test_wrong_version_rejected(self):
        with pytest.raises(wire.WireError, match="version"):
            wire.decode_response({"v": 99, "status": "ok", "kind": "cpq"})

    def test_envelope_missing_kind_rejected(self):
        with pytest.raises(wire.WireError, match="bad response"):
            wire.decode_response({"v": wire.WIRE_VERSION, "status": "ok"})

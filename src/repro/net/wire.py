"""JSON wire format for the network tier.

One versioned envelope carries every message the edge speaks: the
three service request kinds (:class:`~repro.service.CPQRequest`,
:class:`~repro.service.KNNRequest`, :class:`~repro.service.
RangeRequest`) and the structured :class:`~repro.service.
QueryResponse`, including the full :class:`~repro.core.result.
CPQResult` payload (pairs, every :class:`~repro.storage.stats.
QueryStats` counter, ``stats.extra``), the planner's
:class:`~repro.service.PlanDecision`, and the resilience annotations
(``stale``, ``partial``, ``read_retries``).

Design rules:

* **Versioned** -- every envelope leads with ``"v"``; a decoder that
  sees a version it does not speak raises :class:`WireError` instead
  of guessing (the server answers 400, never garbage).
* **Round-trip exact** -- floats travel as JSON numbers, which Python
  serialises with shortest-round-trip ``repr``; decoding reconstructs
  tuples from JSON arrays, so a decoded :class:`ClosestPair` list
  compares ``==`` (values AND order) to the serial engine's.  This is
  what lets the end-to-end tests assert byte parity *through the
  socket*.
* **Self-describing errors** -- malformed input raises
  :class:`WireError` (a ``ValueError``) carrying what was wrong;
  nothing partial is ever returned.

``dumps_*``/``loads_*`` wrap the dict codecs with ``json`` for callers
that want bytes (the server and client use these).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Union

from repro.core.constraints import ColorSpec, RangeSpec
from repro.core.result import ClosestPair, CPQResult
from repro.rtree.entries import LeafEntry
from repro.service import (
    CPQRequest,
    KNNRequest,
    PlanDecision,
    QueryResponse,
    RangeRequest,
)
from repro.storage.stats import QueryStats

#: Wire protocol version; bump on any incompatible envelope change.
#: Version 2 adds the optional ``range`` / ``colors`` fields to the
#: cpq request envelope.  Version 3 adds the ``sql`` op: the envelope
#: carries one CPQL statement (:mod:`repro.query.cpql`) which the
#: *server* parses and plans against its catalog -- the client needs
#: no parser and no knowledge of dataset layout.  Each addition is
#: backwards-compatible -- absent fields decode to unconstrained
#: queries -- so version-1 and version-2 envelopes remain accepted
#: (:data:`ACCEPTED_VERSIONS`); only ``op: sql`` itself demands v3.
WIRE_VERSION = 3

#: Envelope versions this decoder speaks.
ACCEPTED_VERSIONS = frozenset({1, 2, 3})


@dataclass(frozen=True)
class SQLRequest:
    """A CPQL statement travelling to a catalog-attached server.

    Unlike the three structured requests this is *textual*: ``sql``
    is parsed server-side (:func:`repro.query.cpql.parse_cpql`) and
    compiled onto the pair named by its ``FROM`` clause, so the wire
    never fixes the algorithm, constraints or even the pair -- the
    statement does.  ``pair`` optionally overrides the derived pair
    name.  Requires wire version >= 3.
    """

    kind: ClassVar[str] = "sql"

    sql: str
    pair: Optional[str] = None
    deadline_ms: Optional[float] = None
    use_cache: bool = True


Request = Union[CPQRequest, KNNRequest, RangeRequest, SQLRequest]


class WireError(ValueError):
    """Malformed, unsupported, or wrong-version wire payload."""


def _require_version(obj: Dict[str, Any]) -> int:
    version = obj.get("v")
    if version not in ACCEPTED_VERSIONS:
        raise WireError(
            f"unsupported wire version {version!r}; this endpoint "
            f"speaks versions {sorted(ACCEPTED_VERSIONS)}"
        )
    return version


def _json_safe(value: Any) -> Any:
    """Deep-copy ``value`` into JSON-representable primitives.

    ``stats.extra`` is an open dict (parallel counters, fallback
    records, shard annotations); anything a subsystem stuffed in that
    JSON cannot carry is replaced by its ``repr`` rather than failing
    the whole response.
    """
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def encode_request(request: Request) -> Dict[str, Any]:
    """One service request as a versioned JSON-serialisable envelope."""
    out: Dict[str, Any] = {
        "v": WIRE_VERSION,
        "op": request.kind,
        "pair": request.pair,
        "deadline_ms": request.deadline_ms,
        "use_cache": request.use_cache,
    }
    if request.kind == "cpq":
        out.update(
            k=request.k,
            algorithm=request.algorithm,
            height_strategy=request.height_strategy,
            tie_break=_json_safe(request.tie_break),
            maxmax_pruning=request.maxmax_pruning,
            workers=request.workers,
        )
        # Constraint fields (wire v2) are emitted only when set, so an
        # unconstrained request's envelope stays v1-shaped apart from
        # the version number.  Each carries its spec's fields: the dict
        # form ``RangeSpec.coerce`` / ``ColorSpec.coerce`` decode.
        for name in ("range", "colors"):
            spec = getattr(request, name)
            if spec is not None:
                out[name] = _json_safe(asdict(spec))
    elif request.kind == "sql":
        out["sql"] = request.sql
    elif request.kind == "knn":
        out.update(point=list(request.point), k=request.k,
                   side=request.side)
    elif request.kind == "range":
        out.update(lo=list(request.lo), hi=list(request.hi),
                   side=request.side)
    else:  # pragma: no cover -- the union above is exhaustive
        raise WireError(f"unknown request kind {request.kind!r}")
    return out


def decode_request(obj: Dict[str, Any]) -> Request:
    """Decode a request envelope; raises :class:`WireError` on bad
    input (wrong version, unknown op, missing required fields)."""
    if not isinstance(obj, dict):
        raise WireError(f"request envelope must be an object, "
                        f"got {type(obj).__name__}")
    version = _require_version(obj)
    op = obj.get("op", "cpq")
    if op == "sql":
        if version < 3:
            raise WireError(
                f"op 'sql' requires wire version >= 3, got {version}"
            )
        sql = obj.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise WireError("'sql' request needs a non-empty sql string")
        return SQLRequest(
            sql=sql,
            pair=obj.get("pair"),
            deadline_ms=obj.get("deadline_ms"),
            use_cache=bool(obj.get("use_cache", True)),
        )
    common = {
        "pair": obj.get("pair", "default"),
        "deadline_ms": obj.get("deadline_ms"),
        "use_cache": bool(obj.get("use_cache", True)),
    }
    try:
        if op == "cpq":
            return CPQRequest(
                k=int(obj.get("k", 1)),
                algorithm=obj.get("algorithm", "auto"),
                height_strategy=obj.get("height_strategy",
                                        "fix-at-root"),
                tie_break=obj.get("tie_break"),
                maxmax_pruning=bool(obj.get("maxmax_pruning", True)),
                workers=int(obj.get("workers", 0)),
                range=RangeSpec.coerce(obj.get("range")),
                colors=ColorSpec.coerce(obj.get("colors")),
                **common,
            )
        if op == "knn":
            return KNNRequest(
                point=tuple(obj["point"]),
                k=int(obj.get("k", 1)),
                side=obj.get("side", "p"),
                **common,
            )
        if op == "range":
            return RangeRequest(
                lo=tuple(obj["lo"]),
                hi=tuple(obj["hi"]),
                side=obj.get("side", "p"),
                **common,
            )
    except WireError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad {op!r} request: {exc}") from exc
    raise WireError(f"unknown op {op!r}; expected cpq, knn, range or sql")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def _encode_stats(stats: QueryStats) -> Dict[str, Any]:
    return {
        "disk_accesses": stats.disk_accesses,
        "buffer_hits": stats.buffer_hits,
        "distance_computations": stats.distance_computations,
        "node_pairs_visited": stats.node_pairs_visited,
        "max_queue_size": stats.max_queue_size,
        "queue_inserts": stats.queue_inserts,
        "extra": _json_safe(stats.extra),
    }


def _decode_stats(obj: Dict[str, Any]) -> QueryStats:
    return QueryStats(
        disk_accesses=int(obj.get("disk_accesses", 0)),
        buffer_hits=int(obj.get("buffer_hits", 0)),
        distance_computations=int(obj.get("distance_computations", 0)),
        node_pairs_visited=int(obj.get("node_pairs_visited", 0)),
        max_queue_size=int(obj.get("max_queue_size", 0)),
        queue_inserts=int(obj.get("queue_inserts", 0)),
        extra=dict(obj.get("extra", {})),
    )


def _encode_cpq_result(result: CPQResult) -> Dict[str, Any]:
    return {
        "pairs": [
            {"distance": p.distance, "p": list(p.p), "q": list(p.q),
             "p_oid": p.p_oid, "q_oid": p.q_oid}
            for p in result.pairs
        ],
        "stats": _encode_stats(result.stats),
        "algorithm": result.algorithm,
        "k": result.k,
    }


def _decode_cpq_result(obj: Dict[str, Any]) -> CPQResult:
    return CPQResult(
        pairs=[
            ClosestPair(
                distance=float(p["distance"]),
                p=tuple(float(v) for v in p["p"]),
                q=tuple(float(v) for v in p["q"]),
                p_oid=int(p.get("p_oid", 0)),
                q_oid=int(p.get("q_oid", 0)),
            )
            for p in obj.get("pairs", [])
        ],
        stats=_decode_stats(obj.get("stats", {})),
        algorithm=obj.get("algorithm", ""),
        k=int(obj.get("k", 1)),
    )


def _encode_result(kind: str, result: Any) -> Any:
    if result is None:
        return None
    if kind == "cpq":
        return _encode_cpq_result(result)
    if kind == "knn":
        return [
            {"distance": float(d), "point": list(e.point), "oid": e.oid}
            for d, e in result
        ]
    if kind == "range":
        return [{"point": list(e.point), "oid": e.oid} for e in result]
    raise WireError(f"unknown response kind {kind!r}")


def _decode_result(kind: str, payload: Any) -> Any:
    if payload is None:
        return None
    if kind == "cpq":
        return _decode_cpq_result(payload)
    if kind == "knn":
        return [
            (float(item["distance"]),
             LeafEntry(tuple(item["point"]), item.get("oid", 0)))
            for item in payload
        ]
    if kind == "range":
        return [
            LeafEntry(tuple(item["point"]), item.get("oid", 0))
            for item in payload
        ]
    raise WireError(f"unknown response kind {kind!r}")


def _encode_plan(plan: Optional[PlanDecision]) -> Optional[Dict]:
    return None if plan is None else plan.as_dict()


def _decode_plan(obj: Optional[Dict]) -> Optional[PlanDecision]:
    if obj is None:
        return None
    heights: Tuple[int, int] = tuple(obj.get("heights", (0, 0)))
    return PlanDecision(
        algorithm=obj["algorithm"],
        reason=obj.get("reason", ""),
        estimated_accesses=float(obj.get("estimated_accesses", 0.0)),
        estimated_distance=float(obj.get("estimated_distance", 0.0)),
        buffer_pages=int(obj.get("buffer_pages", 0)),
        height_p=int(heights[0]),
        height_q=int(heights[1]),
        k=int(obj.get("k", 1)),
        workers=int(obj.get("workers", 1)),
        estimated_speedup=float(obj.get("estimated_speedup", 1.0)),
        range_selectivity=(
            float(obj["range_selectivity"])
            if obj.get("range_selectivity") is not None else None
        ),
    )


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

def encode_response(response: QueryResponse) -> Dict[str, Any]:
    """One :class:`QueryResponse` -- any status -- as an envelope.

    Every field round-trips, including the failure statuses' ``error``
    text and the resilience annotations; nothing is elided, so a
    client-side decode reconstructs exactly what the service resolved.
    """
    return {
        "v": WIRE_VERSION,
        "status": response.status,
        "kind": response.kind,
        "result": _encode_result(response.kind, response.result),
        "algorithm": response.algorithm,
        "plan": _encode_plan(response.plan),
        "cached": response.cached,
        "stale": response.stale,
        "partial": response.partial,
        "latency_ms": response.latency_ms,
        "disk_reads": response.disk_reads,
        "buffer_hits": response.buffer_hits,
        "read_retries": response.read_retries,
        "error": response.error,
    }


def decode_response(obj: Dict[str, Any]) -> QueryResponse:
    """Decode a response envelope back into a :class:`QueryResponse`."""
    if not isinstance(obj, dict):
        raise WireError(f"response envelope must be an object, "
                        f"got {type(obj).__name__}")
    _require_version(obj)
    try:
        kind = obj["kind"]
        return QueryResponse(
            status=obj["status"],
            kind=kind,
            result=_decode_result(kind, obj.get("result")),
            algorithm=obj.get("algorithm"),
            plan=_decode_plan(obj.get("plan")),
            cached=bool(obj.get("cached", False)),
            stale=bool(obj.get("stale", False)),
            partial=bool(obj.get("partial", False)),
            latency_ms=float(obj.get("latency_ms", 0.0)),
            disk_reads=int(obj.get("disk_reads", 0)),
            buffer_hits=int(obj.get("buffer_hits", 0)),
            read_retries=int(obj.get("read_retries", 0)),
            error=obj.get("error"),
        )
    except WireError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad response envelope: {exc}") from exc


# ---------------------------------------------------------------------------
# Bytes-level conveniences
# ---------------------------------------------------------------------------

def dumps_request(request: Request) -> bytes:
    return json.dumps(encode_request(request)).encode("utf-8")


def loads_request(data: bytes) -> Request:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise WireError(f"request is not valid JSON: {exc}") from exc
    return decode_request(obj)


def dumps_response(response: QueryResponse) -> bytes:
    return json.dumps(encode_response(response)).encode("utf-8")


def loads_response(data: bytes) -> QueryResponse:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise WireError(f"response is not valid JSON: {exc}") from exc
    return decode_response(obj)

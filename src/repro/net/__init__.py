"""The network tier: wire format, spatial shards, edge server, client.

``repro.net`` turns the in-process query service into a served system
(ROADMAP open item 1): :mod:`~repro.net.wire` defines the versioned
JSON envelopes, :mod:`~repro.net.shard` owns the multi-process spatial
shards and their scatter-gather K-heap merge, :mod:`~repro.net.server`
is the asyncio HTTP edge, :mod:`~repro.net.client` the keep-alive
client, and :mod:`~repro.net.loadgen` the closed-loop load generator
behind ``BENCH_network_qps.json``.  See ``docs/NETWORK.md``.

The self-healing layer lives alongside: :mod:`~repro.net.frames` CRC-
checks every shard reply so damaged bytes become typed, retryable
failures; :mod:`~repro.net.retry` holds the backoff and hedging
policies the coordinator runs; :mod:`~repro.net.faults` is the seeded
wire-level fault injector behind ``repro-cpq chaos-net``.  See
``docs/RESILIENCE.md`` for the fault model.
"""

from repro.net.client import NetClient
from repro.net.faults import (
    SCHEDULES,
    FaultyClientTransport,
    FaultyShardTransport,
    NetFaultPlan,
    NetFaultStats,
    ShardTransport,
)
from repro.net.frames import FrameError, decode_frame, encode_frame
from repro.net.retry import SHARD_RETRY_POLICY, HedgePolicy, RetryPolicy
from repro.net.server import NetServer
from repro.net.shard import ShardManager, TreeSpec, tree_spec
from repro.net.wire import (
    SQLRequest,
    WIRE_VERSION,
    WireError,
    decode_request,
    decode_response,
    dumps_request,
    dumps_response,
    encode_request,
    encode_response,
    loads_request,
    loads_response,
)

__all__ = [
    "SCHEDULES",
    "SHARD_RETRY_POLICY",
    "SQLRequest",
    "WIRE_VERSION",
    "FaultyClientTransport",
    "FaultyShardTransport",
    "FrameError",
    "HedgePolicy",
    "NetClient",
    "NetFaultPlan",
    "NetFaultStats",
    "NetServer",
    "RetryPolicy",
    "ShardManager",
    "ShardTransport",
    "TreeSpec",
    "WireError",
    "decode_frame",
    "encode_frame",
    "tree_spec",
    "decode_request",
    "decode_response",
    "dumps_request",
    "dumps_response",
    "encode_request",
    "encode_response",
    "loads_request",
    "loads_response",
]

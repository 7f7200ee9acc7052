"""Pinned fault streams of the storage and network injectors.

Every injector draws from one seeded :class:`random.Random`, so a
schedule replayed against the same operation sequence must inject the
same faults in the same places.  These constants were recorded from
the reference implementation and pin, per bundled schedule:

* **storage** -- the :class:`~repro.storage.faults.FaultStats` of both
  tree wrappers plus the buffer's retry and corrupt-page counts on a
  fixed K-CPQ (HEAP, K=10, ``uniform_points(600, seed=1)`` x
  ``uniform_points(500, seed=2)``, ``buffer_pages=8``, sleeps
  stubbed), and a SHA-256 of 200 raw reads straight off a faulty
  in-memory store (which bits flip, which reads fail);
* **network** -- :class:`~repro.net.faults.FaultyShardTransport` and
  :class:`~repro.net.faults.FaultyClientTransport` counters and a
  SHA-256 of what they let through, over a fixed synthetic message
  sequence against fake shards (no process starts);
* **retry** -- ``delay(n)`` for n = 1..6 under both tiers' named
  default policies (the shard tier with a seeded RNG for its jitter).
"""

import dataclasses
import hashlib
import random

import pytest

from repro.core import CPQRequest, k_closest_pairs
from repro.datasets import uniform_points
from repro.errors import TransientIOError
from repro.net.faults import (
    SCHEDULES as NET_SCHEDULES,
    FaultyClientTransport,
    FaultyShardTransport,
)
from repro.net.frames import encode_frame
from repro.rtree.bulk import bulk_load
from repro.storage.buffer import RetryPolicy
from repro.storage.faults import (
    SCHEDULES,
    FaultyPageStore,
    unwrap_tree_store,
    wrap_tree_store,
)
from repro.storage.store import MemoryPageStore

STAT_FIELDS = ("reads", "writes", "transient_raised", "latency_spikes",
               "bits_flipped", "scheduled_failures", "injected")

#: schedule -> (wrapper P stats, wrapper Q stats, read retries,
#: corrupt pages), stats in STAT_FIELDS order.
STORAGE_PINS = {
    "bitflip": ((86, 0, 0, 0, 1, 0, 1), (60, 0, 0, 0, 2, 0, 2), 0, 3),
    "latency": ((85, 0, 0, 2, 0, 0, 2), (58, 0, 0, 7, 0, 0, 7), 0, 0),
    "mixed": ((90, 0, 5, 0, 1, 0, 6), (62, 0, 3, 2, 1, 0, 6), 8, 1),
    "none": ((85, 0, 0, 0, 0, 0, 0), (58, 0, 0, 0, 0, 0, 0), 0, 0),
    "transient": ((87, 0, 2, 0, 0, 0, 2), (65, 0, 7, 0, 0, 0, 7), 9, 0),
}

#: schedule -> SHA-256 prefix of 200 raw reads off a faulty store.
STORE_STREAM_PINS = {
    'bitflip': 'a82c4abbca14c8d8',
    'latency': '462cee238ee6c0eb',
    'mixed': 'ff479ebf42732842',
    'none': '60e8eb5b45bbc69a',
    'transient': '377b7d1b78935ac5',
}

#: Key order of ``NetFaultStats.as_dict()``.
NET_STAT_KEYS = ("sends", "deliveries", "drops", "stalls",
                 "truncated_frames", "corrupt_frames", "kills", "injected")

#: schedule -> (shard transport stats in NET_STAT_KEYS order, SHA-256
#: prefix of delivered traffic).
SHARD_PINS = {
    'corrupt': ((120, 120, 0, 0, 0, 4, 0, 4), 'ea5f169f9e3bd4b8'),
    'drop': ((120, 120, 13, 0, 0, 0, 0, 13), '90899d3cda97f4f3'),
    'kill': ((120, 120, 0, 0, 0, 0, 2, 2), '81011c3afd4b13d6'),
    'mixed': ((120, 120, 10, 5, 5, 1, 1, 22), 'bfe090fc70cd441f'),
    'none': ((120, 120, 0, 0, 0, 0, 0, 0), '81011c3afd4b13d6'),
    'stall': ((120, 120, 0, 29, 0, 0, 0, 29), '886939fa8e397642'),
    'truncate': ((120, 120, 0, 0, 3, 0, 0, 3), '9751ae409da9cd84'),
}

#: schedule -> (client transport stats in NET_STAT_KEYS order, SHA-256
#: prefix of outcomes).
CLIENT_PINS = {
    'corrupt': ((120, 120, 0, 0, 0, 4, 0, 4), '79ab282180f717be'),
    'drop': ((120, 116, 4, 0, 0, 0, 0, 4), '10b8567f648a9e51'),
    'kill': ((120, 120, 0, 0, 0, 0, 0, 0), '95c31999f8ed2302'),
    'mixed': ((120, 116, 4, 3, 3, 1, 0, 11), 'ecf9a2f23535dab9'),
    'none': ((120, 120, 0, 0, 0, 0, 0, 0), '95c31999f8ed2302'),
    'stall': ((120, 120, 0, 12, 0, 0, 0, 12), 'c632874b8c9e84c5'),
    'truncate': ((120, 120, 0, 0, 4, 0, 0, 4), '3d71aa0fb2b7afba'),
}

PAGE_READ_DELAYS = (0.001, 0.002, 0.004, 0.008, 0.016, 0.032)
SHARD_CHUNK_DELAYS = (
    0.016761672351668377, 0.03698301652150996, 0.05396262107840585,
    0.15420509706659657, 0.23425887931092973, 0.40857777077185364,
)


def _noop(_seconds):
    pass


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


@pytest.mark.parametrize("schedule", sorted(STORAGE_PINS))
def test_storage_schedule_pinned(schedule):
    tree_p = bulk_load(uniform_points(600, seed=1))
    tree_q = bulk_load(uniform_points(500, seed=2))
    for tree in (tree_p, tree_q):
        tree.file.buffer.retry_policy = RetryPolicy(sleep=_noop)
    request = CPQRequest(k=10, algorithm="heap", buffer_pages=8)
    baseline = k_closest_pairs(tree_p, tree_q, request=request).pairs
    plan = SCHEDULES[schedule]
    wrapper_p = wrap_tree_store(tree_p, plan, sleep=_noop)
    wrapper_q = wrap_tree_store(
        tree_q, dataclasses.replace(plan, seed=plan.seed + 1), sleep=_noop
    )
    try:
        result = k_closest_pairs(tree_p, tree_q, request=request)
    finally:
        unwrap_tree_store(tree_p)
        unwrap_tree_store(tree_q)
    assert result.pairs == baseline
    stats_p, stats_q, retries, corrupt = STORAGE_PINS[schedule]
    assert tuple(getattr(wrapper_p.faults, f) for f in STAT_FIELDS) == stats_p
    assert tuple(getattr(wrapper_q.faults, f) for f in STAT_FIELDS) == stats_q
    assert tree_p.stats.read_retries + tree_q.stats.read_retries == retries
    assert tree_p.stats.corrupt_reads + tree_q.stats.corrupt_reads == corrupt


@pytest.mark.parametrize("schedule", sorted(STORAGE_PINS))
def test_store_stream_pinned(schedule):
    inner = MemoryPageStore(256)
    for i in range(8):
        inner.write(inner.allocate(), bytes([i * 31 % 251]) * 256)
    # Dense probabilities so every fault shape fires often enough for
    # the digest to see where each one lands.
    plan = SCHEDULES[schedule]
    dense = dataclasses.replace(
        plan,
        p_transient=min(1.0, plan.p_transient * 8),
        p_latency=min(1.0, plan.p_latency * 8),
        p_bitflip=min(1.0, plan.p_bitflip * 8),
    )
    store = FaultyPageStore(inner, dense, sleep=_noop)
    store.fail_reads[5] = 3
    outcomes = []
    for i in range(200):
        try:
            outcomes.append(hashlib.sha256(store.read(i % 8)).hexdigest())
        except TransientIOError:
            outcomes.append("transient")
    outcomes.append(store.flip_bit(2))
    assert _digest(outcomes) == STORE_STREAM_PINS[schedule]


class _FakeShard:
    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.process = None
        self.inbox = self
        self.received = []

    def put(self, message):
        self.received.append(message)


@pytest.mark.parametrize("schedule", sorted(NET_SCHEDULES))
def test_shard_transport_pinned(schedule):
    # Stalls re-deliver through timers; push them far past the test so
    # only the synchronous decisions are observed.
    plan = dataclasses.replace(NET_SCHEDULES[schedule], stall_s=3600.0)
    transport = FaultyShardTransport(plan)
    shards = [_FakeShard(i) for i in range(3)]
    delivered = []
    try:
        for i in range(120):
            shard = shards[i % 3]
            transport.send(shard, ("query", i, i % 3, i, None, [], None))
            frame = encode_frame({"ok": True, "i": i,
                                  "pairs": list(range(i % 7))})
            transport.deliver(("reply", i, i % 3, i, shard.shard_id, frame),
                              delivered.append)
    finally:
        transport.close()
    traffic = ([len(s.received) for s in shards], delivered)
    stats, digest = SHARD_PINS[schedule]
    assert transport.faults.as_dict() == dict(zip(NET_STAT_KEYS, stats))
    assert _digest(traffic) == digest


@pytest.mark.parametrize("schedule", sorted(NET_SCHEDULES))
def test_client_transport_pinned(schedule):
    naps = []
    faults = FaultyClientTransport(NET_SCHEDULES[schedule],
                                   sleep=naps.append)
    outcomes = []
    for i in range(120):
        try:
            faults.before_send()
        except ConnectionError:
            outcomes.append("drop")
            continue
        body = b'{"status": "ok", "i": %d, "pad": "%s"}' % (i, b"x" * i)
        outcomes.append(faults.transform_response(body))
    outcomes.append(tuple(naps))
    stats, digest = CLIENT_PINS[schedule]
    assert faults.faults.as_dict() == dict(zip(NET_STAT_KEYS, stats))
    assert _digest(outcomes) == digest


def test_page_read_retry_schedule_pinned():
    from repro.storage.buffer import DEFAULT_RETRY_POLICY

    assert tuple(
        DEFAULT_RETRY_POLICY.delay(n) for n in range(1, 7)
    ) == PAGE_READ_DELAYS


def test_shard_chunk_retry_schedule_pinned():
    from repro.net.retry import SHARD_RETRY_POLICY

    rng = random.Random(7)
    assert tuple(
        SHARD_RETRY_POLICY.delay(n, rng) for n in range(1, 7)
    ) == SHARD_CHUNK_DELAYS

"""Wire-level fault injection and the coordinator's self-healing.

Two layers under test.  The injector itself
(:mod:`repro.net.faults`): plans validate, decisions are
seed-deterministic, damaged frames are *always* detectable (CRC /
length), streak caps make every bundled schedule survivable.  And the
coordinator's response: under every named schedule the sharded answer
stays byte-identical to serial; stalls trigger hedges that can win;
kills end in supervisor respawns; duplicated replies dedupe instead of
double-merging; a hot reload moves live shards onto a newer pinned
generation without restart.  The no-fault shard contract lives in
``tests/test_shard.py``.
"""

import random
import threading
import time

import pytest

from repro.core.api import CPQRequest, k_closest_pairs
from repro.net.faults import (
    SCHEDULES,
    FaultyClientTransport,
    FaultyShardTransport,
    NetFaultPlan,
    NetFaultStats,
    ShardTransport,
    corrupt_frame,
    truncate_frame,
)
from repro.net.frames import FrameError, decode_frame, encode_frame
from repro.net.retry import SHARD_RETRY_POLICY, HedgePolicy, RetryPolicy
from repro.net.shard import ShardManager, tree_spec
from repro.rtree.bulk import bulk_load
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore

ALGORITHMS = ("naive", "exh", "sim", "std", "heap")

#: Tight knobs so injected losses are noticed in test time, not the
#: 30 s production defaults.
FAST = dict(
    shard_timeout_s=20.0,
    attempt_timeout_s=0.4,
    retry_policy=RetryPolicy(max_attempts=4, base_delay_s=0.01,
                             max_delay_s=0.05, jitter=0.5),
    probe_interval_s=0.1,
)


def _file_tree(tmp_path, name, points):
    store = FilePageStore(str(tmp_path / name), page_size=1024)
    return bulk_load(points, file=PagedFile(store, page_size=1024))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("net-faults")
    rng = random.Random(21)
    tree_p = _file_tree(
        tmp, "p.pages",
        [(rng.random(), rng.random()) for __ in range(200)],
    )
    tree_q = _file_tree(
        tmp, "q.pages",
        [(rng.random(), rng.random()) for __ in range(200)],
    )
    serial = {
        algorithm: k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=10, algorithm=algorithm),
        )
        for algorithm in ALGORITHMS
    }
    return tree_spec(tree_p), tree_spec(tree_q), serial


class _FakeShard:
    """Just enough shard surface for transport unit tests."""

    def __init__(self, shard_id=0):
        self.shard_id = shard_id
        self.process = None
        self.inbox = self

    def put(self, message):
        pass


class TestPlans:
    @pytest.mark.parametrize("field", [
        "p_drop", "p_stall", "p_truncate", "p_corrupt", "p_kill",
    ])
    def test_probabilities_validated(self, field):
        with pytest.raises(ValueError, match=field):
            NetFaultPlan(**{field: 1.5})

    def test_shape_bounds_validated(self):
        with pytest.raises(ValueError, match="stall_s"):
            NetFaultPlan(stall_s=-1.0)
        with pytest.raises(ValueError, match="max_consecutive"):
            NetFaultPlan(max_consecutive=0)
        with pytest.raises(ValueError, match="max_kills"):
            NetFaultPlan(max_kills=-1)

    def test_bundled_schedules_are_survivable(self):
        # Every schedule's worst loss streak fits inside the default
        # retry budget, and kills are capped -- the properties the
        # module docstring promises.
        policy = SHARD_RETRY_POLICY
        for name, plan in SCHEDULES.items():
            assert plan.max_consecutive < policy.max_attempts, name
            assert plan.max_kills <= 3, name

    def test_stats_tally(self):
        stats = NetFaultStats(drops=2, stalls=1, kills=1)
        assert stats.injected == 4
        assert stats.as_dict()["injected"] == 4


class TestDeterminism:
    def test_same_seed_same_faults(self):
        plan = SCHEDULES["mixed"]
        runs = []
        for __ in range(2):
            transport = FaultyShardTransport(plan)
            shard = _FakeShard()
            for i in range(40):
                transport.send(shard, ("query", i, 0, i, None, [], None))
            for i in range(40):
                transport.deliver(
                    ("reply", i, 0, i, 0, encode_frame({"i": i})),
                    lambda message: None,
                )
            transport.close()
            runs.append(transport.faults.as_dict())
        assert runs[0] == runs[1]

    def test_different_seed_different_faults(self):
        import dataclasses

        counts = set()
        for seed in range(4):
            plan = dataclasses.replace(SCHEDULES["mixed"], seed=seed)
            transport = FaultyShardTransport(plan)
            shard = _FakeShard()
            for i in range(60):
                transport.send(shard, ("query", i, 0, i, None, [], None))
            transport.close()
            counts.add(transport.faults.injected)
        assert len(counts) > 1


class TestFrameDamage:
    def test_round_trip(self):
        payload = {"ok": True, "pairs": [(1.0, (0.5, 0.5))]}
        assert decode_frame(encode_frame(payload)) == payload

    @pytest.mark.parametrize("damage", [truncate_frame, corrupt_frame])
    def test_damage_always_detected(self, damage):
        rng = random.Random(5)
        frame = encode_frame({"ok": True, "data": list(range(50))})
        for __ in range(200):
            with pytest.raises(FrameError):
                decode_frame(damage(frame, rng))


class TestScheduleParity:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_exact_answers_under_every_schedule(self, corpus, schedule):
        spec_p, spec_q, serial = corpus
        transport = FaultyShardTransport(SCHEDULES[schedule])
        with ShardManager(spec_p, spec_q, shards=2,
                          transport=transport, seed=3,
                          **FAST) as manager:
            for algorithm in ALGORITHMS:
                result = manager.execute(
                    CPQRequest(k=10, algorithm=algorithm)
                )
                assert result.pairs == serial[algorithm].pairs, (
                    f"{schedule}/{algorithm} diverged"
                )
                assert result.stats.extra["net"]["partial"] is False


class _HoldShardZero(ShardTransport):
    """Deterministic hedging bait: shard 0 gets each query job only
    after shard 1's reply for the same chunk has been delivered, and
    never once the transport has closed."""

    def __init__(self):
        self._lock = threading.Lock()
        #: (req_id, chunk_id) -> (inbox, job) of held shard-0 jobs.
        self._held = {}
        self._closed = False

    def send(self, shard, message) -> None:
        if shard.shard_id == 0 and message[0] == "query":
            with self._lock:
                if not self._closed:
                    self._held[message[1:3]] = (shard.inbox, message)
            return
        shard.inbox.put(message)

    def deliver(self, message, deliver) -> None:
        deliver(message)
        if message[0] == "reply" and message[4] == 1:
            with self._lock:
                held = (None if self._closed
                        else self._held.pop(message[1:3], None))
                if held is not None:
                    inbox, job = held
                    inbox.put(job)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._held.clear()


class _WithholdProbes(ShardTransport):
    """No probe reaches a shard, so none ever acks one: to the
    supervisor, every shard is still booting."""

    def send(self, shard, message) -> None:
        if message[0] != "probe":
            shard.inbox.put(message)


class _EchoTwice(ShardTransport):
    """Every reply arrives twice: the dedupe layer's nightmare."""

    def deliver(self, message, deliver) -> None:
        deliver(message)
        deliver(message)


class TestSelfHealing:
    def test_stalled_shard_loses_to_hedge(self, corpus):
        spec_p, spec_q, serial = corpus
        with ShardManager(
            spec_p, spec_q, shards=2,
            transport=_HoldShardZero(),
            shard_timeout_s=20.0, attempt_timeout_s=5.0,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                     max_delay_s=0.5, jitter=0.5),
            hedge_policy=HedgePolicy(floor_s=0.05, min_samples=64),
        ) as manager:
            result = manager.execute(CPQRequest(k=10, algorithm="heap"))
            assert result.pairs == serial["heap"].pairs
            stats = manager.net_stats()
            # Shard 0's chunk sat held past the 50 ms floor, so a
            # hedge went to shard 1, and shard 0 saw the job only
            # after the hedge's answer had been delivered.
            assert stats["hedges"] >= 1
            assert stats["hedge_wins"] >= 1

    def test_killed_shard_respawns_and_recovers(self, corpus):
        import dataclasses

        spec_p, spec_q, serial = corpus
        plan = dataclasses.replace(
            SCHEDULES["kill"], p_kill=1.0, max_kills=1, seed=1
        )
        with ShardManager(spec_p, spec_q, shards=2,
                          transport=FaultyShardTransport(plan),
                          **FAST) as manager:
            result = manager.execute(CPQRequest(k=10, algorithm="heap"))
            assert result.pairs == serial["heap"].pairs
            deadline = time.monotonic() + 5.0
            while (manager.net_stats()["respawns"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            stats = manager.net_stats()
            assert stats["respawns"] >= 1
            assert all(row["alive"] for row in manager.health())

    def test_booting_shard_is_not_hung(self, corpus, monkeypatch):
        from repro.net import shard as shard_module

        spec_p, spec_q, __ = corpus
        boot_s = 3.0
        monkeypatch.setattr(shard_module, "_BOOT_DEADLINE_S", boot_s)
        start = time.monotonic()  # no shard is spawned before this
        with ShardManager(spec_p, spec_q, shards=2,
                          transport=_WithholdProbes(),
                          probe_interval_s=0.1) as manager:
            # Fifteen unanswered probe cycles: three would declare a
            # booted shard hung, but a booting one is left alone.
            time.sleep(max(0.0, start + boot_s / 2 - time.monotonic()))
            stats = manager.net_stats()
            assert stats["respawns"] == 0
            assert stats["probe_misses"] == 0
            # Past the boot deadline the silent shards are respawned.
            while (manager.net_stats()["respawns"] == 0
                   and time.monotonic() < start + boot_s + 10.0):
                time.sleep(0.05)
            stats = manager.net_stats()
            assert stats["respawns"] >= 1
            assert stats["probe_misses"] == 0

    def test_duplicate_replies_dedupe(self, corpus):
        spec_p, spec_q, serial = corpus
        with ShardManager(spec_p, spec_q, shards=2,
                          transport=_EchoTwice()) as manager:
            for algorithm in ALGORITHMS:
                result = manager.execute(
                    CPQRequest(k=10, algorithm=algorithm)
                )
                # Byte-identical despite every payload arriving twice:
                # one offer per chunk, the echo dropped, never merged.
                assert result.pairs == serial[algorithm].pairs
            assert manager.net_stats()["dedup_dropped"] >= 1

    def test_hot_reload_onto_newer_generation(self, tmp_path):
        rng = random.Random(9)
        tree_p = _file_tree(
            tmp_path, "p.pages",
            [(rng.random(), rng.random()) for __ in range(150)],
        )
        tree_q = _file_tree(
            tmp_path, "q.pages",
            [(rng.random(), rng.random()) for __ in range(150)],
        )
        tree_p.enable_live_mutation()
        spec_q = tree_spec(tree_q)
        spec0 = tree_spec(tree_p)
        with ShardManager(spec0, spec_q, shards=2,
                          probe_interval_s=0.1) as manager:
            before = manager.execute(CPQRequest(k=8, algorithm="heap"))
            assert before.pairs == k_closest_pairs(
                tree_p, tree_q, request=CPQRequest(k=8, algorithm="heap")
            ).pairs

            pin = tree_p.pin()  # hold the served generation alive
            with tree_p.batch():
                for i in range(40):
                    tree_p.insert((rng.random(), rng.random()), 150 + i)
            spec1 = tree_spec(tree_p)
            assert spec1.generation > spec0.generation

            report = manager.reload(spec1, spec_q)
            tree_p.release(pin)
            assert report["generation_p"] == spec1.generation
            # Live shards reopened in place; nobody needed a restart.
            assert sorted(report["acked"] + report["respawned"]) == [0, 1]
            after = manager.execute(CPQRequest(k=8, algorithm="heap"))
            assert after.pairs == k_closest_pairs(
                tree_p, tree_q, request=CPQRequest(k=8, algorithm="heap")
            ).pairs
            assert manager.net_stats()["reloads"] == 1
            assert manager.net_stats()["generation_p"] == spec1.generation


class TestClientTransport:
    def test_drop_raises_then_clears(self):
        faults = FaultyClientTransport(
            NetFaultPlan(p_drop=1.0, max_consecutive=1)
        )
        with pytest.raises(ConnectionError):
            faults.before_send()
        # Streak cap reached: the retry goes through.
        faults.before_send()
        assert faults.faults.drops == 1

    def test_stall_sleeps(self):
        napped = []
        faults = FaultyClientTransport(
            NetFaultPlan(p_stall=1.0, stall_s=0.25),
            sleep=napped.append,
        )
        faults.before_send()
        assert napped == [0.25]

    def test_damaged_body_is_not_json(self):
        import json

        faults = FaultyClientTransport(NetFaultPlan(p_truncate=1.0))
        body = json.dumps({"status": "ok", "pairs": [1, 2, 3]}).encode()
        for __ in range(20):
            damaged = faults.transform_response(body)
            if damaged != body:
                break
        with pytest.raises(json.JSONDecodeError):
            json.loads(damaged)

"""Deterministic wire-level fault injection for the network tier.

The storage tier proved its resilience against a seed-driven
:class:`~repro.storage.faults.FaultyPageStore`; this module is the
same instrument one layer up, aimed at the *wire* between the
coordinator and its shard processes (and, for the HTTP edge, between a
client and the server).  A :class:`NetFaultPlan` names the shapes and
probabilities; :class:`FaultyShardTransport` implements the injectable
transport seam of :class:`~repro.net.shard.ShardManager`:

* **drops** -- a job or reply silently vanishes (the lost-datagram /
  closed-connection shape; only a timeout can notice);
* **stalls** -- a message is delivered late, past the hedging
  threshold (the congested-link shape);
* **truncated / corrupt frames** -- a reply's CRC frame
  (:mod:`repro.net.frames`) arrives damaged, which the coordinator
  must detect and retry, never merge;
* **kills** -- the shard process dies mid-request (``SIGKILL``), the
  crash-under-load shape the supervisor must respawn.

Everything is deterministic given ``(plan.seed, operation sequence)``
-- one private :class:`random.Random` drives all decisions, exactly
like the storage injector, whose plan, stats, loss-streak and bit-flip
parts this module reuses -- so a chaos run that found a divergence
can be replayed.  ``max_consecutive`` bounds back-to-back losses per
shard and ``max_kills`` bounds process kills per transport lifetime,
which is what makes every bundled schedule *survivable*: a retry
budget deeper than the worst loss streak, plus exact coordinator
recovery, provably reaches an answer.  Named plans used by
``repro-cpq chaos-net`` live in :data:`SCHEDULES`.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Tuple

from repro.net.frames import _HEADER
from repro.storage.faults import (
    FaultStatsBase,
    LossStreaks,
    PlanBase,
    with_bit_flipped,
)


@dataclass(frozen=True)
class NetFaultPlan(PlanBase):
    """One named wire-fault schedule: probabilities and shapes.

    All probabilities are per-message.  ``stall_s`` is how late a
    stalled message is delivered (through a timer, so the collector
    never blocks).  ``max_consecutive`` bounds back-to-back losses
    (drops, stalls and kills) per shard; ``max_kills`` caps process
    kills over the transport's lifetime so respawn backoff cannot be
    starved.
    """

    #: Probability a message (job or reply) is silently dropped.
    p_drop: float = 0.0
    #: Probability a message is delivered ``stall_s`` late.
    p_stall: float = 0.0
    stall_s: float = 0.05
    #: Probability a reply frame loses its tail (detected by length).
    p_truncate: float = 0.0
    #: Probability a reply frame has one bit flipped (detected by CRC).
    p_corrupt: float = 0.0
    #: Probability a job's shard process is killed mid-request.
    p_kill: float = 0.0
    #: Upper bound on process kills per transport lifetime.
    max_kills: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stall_s < 0:
            raise ValueError("stall_s must be >= 0")
        if self.max_kills < 0:
            raise ValueError("max_kills must be >= 0")


#: Named plans for the chaos harness (``repro-cpq chaos-net
#: --schedule``).  Each is survivable by construction: loss streaks
#: stay below the default retry budget, kills are capped, and frame
#: damage is always detectable, so exact recovery always terminates.
SCHEDULES: Dict[str, NetFaultPlan] = {
    "none": NetFaultPlan(),
    "drop": NetFaultPlan(p_drop=0.05),
    "stall": NetFaultPlan(p_stall=0.15, stall_s=0.08),
    "truncate": NetFaultPlan(p_truncate=0.05),
    "corrupt": NetFaultPlan(p_corrupt=0.05),
    "kill": NetFaultPlan(p_kill=0.08, max_kills=2),
    "mixed": NetFaultPlan(p_drop=0.03, p_stall=0.03, stall_s=0.05,
                          p_truncate=0.02, p_corrupt=0.02, p_kill=0.02,
                          max_kills=1),
}


@dataclass
class NetFaultStats(FaultStatsBase):
    """Counters of what the transport actually injected."""

    OPERATIONS: ClassVar[Tuple[str, ...]] = ("sends", "deliveries")

    sends: int = 0
    deliveries: int = 0
    drops: int = 0
    stalls: int = 0
    truncated_frames: int = 0
    corrupt_frames: int = 0
    kills: int = 0


def truncate_frame(frame: bytes, rng: random.Random) -> bytes:
    """Cut a random-length tail off a frame (always detectable)."""
    floor = _HEADER.size  # keep the header so 'truncated' != 'garbage'
    if len(frame) <= floor + 1:
        return frame[:floor]
    return frame[:rng.randrange(floor, len(frame))]


def corrupt_frame(frame: bytes, rng: random.Random) -> bytes:
    """Flip one random payload bit of a frame (CRC must catch it)."""
    # Flip inside the CRC-covered region (length + payload) so the
    # damage is always the checksum's to catch, never the magic's.
    start = 2  # past the magic
    return with_bit_flipped(frame, rng.randrange(start * 8, len(frame) * 8))


class ShardTransport:
    """The default (perfect) coordinator<->shard transport.

    :class:`~repro.net.shard.ShardManager` routes every outbound job
    through :meth:`send` and every reply pulled off the shared outbox
    through :meth:`deliver`; subclasses get one seam to lose, delay,
    damage or escalate messages.  The base class is a transparent
    wire.
    """

    def send(self, shard, message) -> None:
        """Enqueue one job on the shard's inbox."""
        shard.inbox.put(message)

    def deliver(self, message, deliver: Callable[[tuple], None]) -> None:
        """Hand one reply to the coordinator's dispatch callback."""
        deliver(message)

    def close(self) -> None:
        """Release any transport-owned resources (timers)."""


class FaultyShardTransport(ShardTransport):
    """A :class:`ShardTransport` that fails on purpose, per plan.

    Jobs can be dropped, stalled, or escalated to a process kill
    mid-request; replies can be dropped, stalled, or have their CRC
    frame truncated / bit-flipped (the coordinator's frame check turns
    both into typed, retryable failures).  All decisions come from one
    seeded RNG; stalls re-deliver through daemon timers so the
    collector thread never blocks.
    """

    def __init__(self, plan: NetFaultPlan = NetFaultPlan()):
        self.plan = plan
        self.faults = NetFaultStats()
        self._rng = random.Random(plan.seed)
        #: Loss streaks per shard id (drops, stalls and kills charge).
        self._streaks = LossStreaks(plan.max_consecutive)
        self._timers: set = set()
        self._closed = False

    def _later(self, delay_s: float, action: Callable[[], None]) -> None:
        def fire() -> None:
            self._timers.discard(timer)
            if self._closed:
                return
            try:
                action()
            except (OSError, ValueError):  # pragma: no cover
                pass  # the queue went away under the stalled message
        timer = threading.Timer(delay_s, fire)
        timer.daemon = True
        self._timers.add(timer)
        timer.start()

    # -- the faulted wire --------------------------------------------------

    def send(self, shard, message) -> None:
        self.faults.sends += 1
        plan, rng = self.plan, self._rng
        roll_kill = plan.p_kill and rng.random() < plan.p_kill
        roll_drop = plan.p_drop and rng.random() < plan.p_drop
        roll_stall = plan.p_stall and rng.random() < plan.p_stall
        if roll_kill and self.faults.kills < plan.max_kills \
                and self._streaks.charge(shard.shard_id):
            # Mid-request: the job arrives, then the process dies
            # under it -- the shard never replies and the supervisor
            # must respawn it.
            shard.inbox.put(message)
            self.faults.kills += 1
            process = shard.process
            if process is not None:
                process.kill()
            return
        if roll_drop and self._streaks.charge(shard.shard_id):
            self.faults.drops += 1
            return
        if roll_stall and self._streaks.charge(shard.shard_id):
            self.faults.stalls += 1
            inbox = shard.inbox
            self._later(plan.stall_s, lambda: inbox.put(message))
            return
        self._streaks.clear(shard.shard_id)
        shard.inbox.put(message)

    def deliver(self, message, deliver: Callable[[tuple], None]) -> None:
        self.faults.deliveries += 1
        plan, rng = self.plan, self._rng
        shard_id = _reply_shard_id(message)
        if plan.p_drop and rng.random() < plan.p_drop \
                and self._streaks.charge(shard_id):
            self.faults.drops += 1
            return
        if plan.p_stall and rng.random() < plan.p_stall \
                and self._streaks.charge(shard_id):
            self.faults.stalls += 1
            self._later(plan.stall_s, lambda: deliver(message))
            return
        frame = message[-1] if message and isinstance(
            message[-1], (bytes, bytearray)) else None
        if frame is not None:
            if plan.p_truncate and rng.random() < plan.p_truncate:
                self.faults.truncated_frames += 1
                message = message[:-1] + (truncate_frame(frame, rng),)
            elif plan.p_corrupt and rng.random() < plan.p_corrupt:
                self.faults.corrupt_frames += 1
                message = message[:-1] + (corrupt_frame(frame, rng),)
        self._streaks.clear(shard_id)
        deliver(message)

    def close(self) -> None:
        self._closed = True
        for timer in list(self._timers):
            timer.cancel()
        self._timers.clear()


def _reply_shard_id(message) -> int:
    """Best-effort shard id of a reply tuple (for streak accounting)."""
    try:
        return int(message[-2])
    except (TypeError, ValueError, IndexError):  # pragma: no cover
        return -1


class FaultyClientTransport:
    """Fault hooks for :class:`~repro.net.client.NetClient`.

    The client calls :meth:`before_send` ahead of every HTTP exchange
    and :meth:`transform_response` on every raw response body.  Drops
    raise :class:`ConnectionError` (the client's stale-keep-alive
    retry path picks those up -- one transparent reconnect, then a
    loud :class:`~repro.net.client.NetError`); stalls sleep; truncate /
    corrupt damage the body so the JSON layer rejects it.  The same
    seeded determinism as the shard transport.
    """

    def __init__(self, plan: NetFaultPlan = NetFaultPlan(),
                 sleep: Callable[[float], None] = time.sleep):
        self.plan = plan
        self.faults = NetFaultStats()
        self._rng = random.Random(plan.seed)
        #: One connection, one streak key: only drops charge it, and
        #: any send that gets through (stalled or not) resets it.
        self._streaks = LossStreaks(plan.max_consecutive)
        self._sleep = sleep

    def before_send(self) -> None:
        self.faults.sends += 1
        plan, rng = self.plan, self._rng
        if plan.p_drop and rng.random() < plan.p_drop \
                and self._streaks.charge(None):
            self.faults.drops += 1
            raise ConnectionError("injected connection drop")
        if plan.p_stall and rng.random() < plan.p_stall:
            self.faults.stalls += 1
            self._sleep(plan.stall_s)
        self._streaks.clear(None)

    def transform_response(self, body: bytes) -> bytes:
        self.faults.deliveries += 1
        plan, rng = self.plan, self._rng
        if plan.p_truncate and rng.random() < plan.p_truncate and body:
            self.faults.truncated_frames += 1
            return body[:rng.randrange(0, len(body))]
        if plan.p_corrupt and rng.random() < plan.p_corrupt and body:
            self.faults.corrupt_frames += 1
            return with_bit_flipped(body, rng.randrange(len(body) * 8))
        return body
